//go:build slider_invariants

package reasoner

import "time"

// Checking implementations, compiled only under the slider_invariants
// build tag. Run with:
//
//	go test -race -tags slider_invariants ./internal/reasoner

// A parked waiter looks up every strandedPeriod; a wake-up that is due
// must arrive within strandedGrace of the look (generous: the raising
// goroutine only has to be scheduled once).
var (
	strandedPeriod = 50 * time.Millisecond
	strandedGrace  = time.Second
)

func (e *Engine) strandedCheck() <-chan time.Time { return time.After(strandedPeriod) }

// assertNotStranded panics when a waiter is left parked on a quiescent
// engine. The waiter saw inflight > 0 after taking its generation, so
// inflight == 0 with an idle pool means some instance's finish brought
// busy to zero since — and that finish raises the wake-up, closing
// woken. If it never does, a transition forgot to raise.
func (e *Engine) assertNotStranded(woken <-chan struct{}) {
	if e.inflight.Load() != 0 || e.busy.Load() != 0 {
		return
	}
	select {
	case <-woken:
	case <-time.After(strandedGrace):
		panic("reasoner invariant: waiter left parked with inflight == 0 (lost wake-up)")
	}
}
