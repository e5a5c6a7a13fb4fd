package store

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
)

// TestCompactionPanicRestartRecovers: a *transient* panic cause must not
// retire the compactor. The worker is respawned with backoff; once a
// pass completes cleanly the restart budget resets, CompactionErr stays
// nil, and the enqueued partition actually gets compacted.
func TestCompactionPanicRestartRecovers(t *testing.T) {
	var calls atomic.Int64
	SetCompactTestHook(func() {
		if calls.Add(1) <= 2 {
			panic("transient injected failure")
		}
	})
	defer SetCompactTestHook(nil)

	st := New()
	for i := 0; i < fanIn; i++ {
		st.Add(rdf.T(rdf.ID(i+10), 1, 2))
	}
	// Two panics cost 10ms+20ms of restart backoff; the third spawn runs
	// the pass for real and merges the runs.
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Compaction.Merges == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("compaction never completed after transient panics (hook calls: %d, err: %v)",
				calls.Load(), st.CompactionErr())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := st.CompactionErr(); err != nil {
		t.Fatalf("CompactionErr = %v after recovery, want nil", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("hook ran %d times, want 3 (two panics + one clean pass)", calls.Load())
	}
	// The budget reset with the clean pass: a fresh predicate's pass runs
	// immediately (no leftover backoff, no sticky error).
	for i := 0; i < fanIn; i++ {
		st.Add(rdf.T(rdf.ID(i+1_000_000), 3, 2))
	}
	deadline = time.Now().Add(10 * time.Second)
	for st.Stats().Compaction.Merges < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second partition never compacted after budget reset")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := st.CompactionErr(); err != nil {
		t.Fatalf("CompactionErr = %v, want nil", err)
	}
}

// TestCompactionPanicStickyTimestamp: once the restart budget is spent
// the sticky error carries a since-timestamp for the health surface.
func TestCompactionPanicStickyTimestamp(t *testing.T) {
	SetCompactTestHook(func() { panic("injected failure") })
	defer SetCompactTestHook(nil)

	st := New()
	if !st.CompactionErrSince().IsZero() {
		t.Fatal("CompactionErrSince set before any error")
	}
	before := time.Now()
	for i := 0; i < fanIn; i++ {
		st.Add(rdf.T(rdf.ID(i+10), 1, 2))
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.CompactionErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("CompactionErr never set")
		}
		time.Sleep(2 * time.Millisecond)
	}
	since := st.CompactionErrSince()
	if since.IsZero() || since.Before(before.Add(-time.Second)) || since.After(time.Now()) {
		t.Fatalf("CompactionErrSince = %v, want between test start and now", since)
	}
}
