//go:build slider_invariants

package reasoner

import (
	"context"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/store"
)

// TestTaggedStrandedWaiterPanics loses a wake-up on purpose — it retires
// a work unit behind finish's back, so nothing raises — and asserts the
// tagged check panics in the parked waiter: the assertion layer is
// live, not a silent no-op.
func TestTaggedStrandedWaiterPanics(t *testing.T) {
	strandedPeriod, strandedGrace = 5*time.Millisecond, 20*time.Millisecond
	defer func() { strandedPeriod, strandedGrace = 50*time.Millisecond, time.Second }()

	e := New(store.New(), rules.RhoDF(), Config{Timeout: time.Hour})
	e.inflight.Add(1) // a unit no instance owns
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		e.Wait(context.Background())
	}()
	for e.idle.parked.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	e.inflight.Add(-1) // quiescent, and nobody told the waiter
	select {
	case r := <-panicked:
		if r == nil {
			t.Fatal("stranded waiter returned instead of panicking under -tags slider_invariants")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stranded waiter never noticed")
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
