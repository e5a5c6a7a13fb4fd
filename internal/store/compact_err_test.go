package store

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
)

// TestCompactionPanicIsSticky: a panic inside the background compactor
// must not take the process down. A *persistent* panic cause exhausts
// the capped restart budget (compactMaxRestarts respawns with backoff,
// ~310ms total); the worker then records a sticky CompactionErr,
// retires, and refuses further passes — while the store itself stays
// fully usable (compaction only reshapes physical layout). See
// TestCompactionPanicRestartRecovers for the transient-cause half.
func TestCompactionPanicIsSticky(t *testing.T) {
	SetCompactTestHook(func() { panic("injected failure") })
	defer SetCompactTestHook(nil)

	st := New()
	// fanIn one-pair runs on one predicate make a merge window due,
	// enqueue the partition and spawn the (hooked) worker.
	for i := 0; i < fanIn; i++ {
		st.Add(rdf.T(rdf.ID(i+10), 1, 2))
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.CompactionErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("CompactionErr never set after injected panic")
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := st.CompactionErr()
	if !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("CompactionErr = %v, want the injected panic value", err)
	}

	// Sticky and non-fatal: later writes on a fresh predicate make
	// windows due (spawning a worker that must now refuse to run), reach
	// the run bound, where the writers merge for themselves, and land
	// correctly, and the error is not cleared.
	const later = 3 * maxRuns
	for i := 0; i < later; i++ {
		st.Add(rdf.T(rdf.ID(i+1_000_000), 3, 2))
	}
	if got, want := st.Len(), fanIn+later; got != want {
		t.Fatalf("Len = %d after post-panic writes, want %d", got, want)
	}
	if runs := st.Stats().Runs; runs > 1+maxRuns {
		t.Fatalf("%d runs after post-panic writes: writers did not merge at the bound", runs)
	}
	if st.CompactionErr() == nil {
		t.Fatal("CompactionErr cleared by later writes; must be sticky")
	}
}

// TestWritersMergeDownAtTheBound: with the compactor off, a write merges
// a predicate down itself only when it would otherwise take it past
// maxRuns runs — an add at maxRuns, a promotion (a marker run and an add
// run) at maxRuns-1.
func TestWritersMergeDownAtTheBound(t *testing.T) {
	fill := func(n int) *Store {
		st := New()
		st.SetAutoCompact(false)
		for i := 0; i < n; i++ {
			st.Add(rdf.T(rdf.ID(i+10), 1, 2))
		}
		if runs := st.Stats().Runs; runs != n {
			t.Fatalf("%d one-pair adds made %d runs: a writer merged before the bound", n, runs)
		}
		return st
	}

	st := fill(maxRuns)
	st.Add(rdf.T(1_000_000, 1, 2))
	if runs := st.Stats().Runs; runs > maxRuns {
		t.Fatalf("an add at %d runs left %d runs", maxRuns, runs)
	}

	st = fill(maxRuns - 1)
	promoted := rdf.T(10, 1, 2)
	if fresh := st.AssertBatch([]rdf.Triple{promoted}); len(fresh) != 0 {
		t.Fatalf("promotion returned %v as fresh", fresh)
	}
	if runs := st.Stats().Runs; runs > maxRuns {
		t.Fatalf("a promotion at %d runs left %d runs", maxRuns-1, runs)
	}
	if !st.Explicit(promoted) || st.Len() != maxRuns-1 {
		t.Fatalf("after the promotion: Explicit = %v, Len = %d", st.Explicit(promoted), st.Len())
	}
	if st.Demote([]rdf.Triple{promoted}) != 1 || st.Explicit(promoted) || !st.Contains(promoted) {
		t.Fatal("demotion after the merge-down did not leave the pair live and inferred")
	}
	if runs := st.Stats().Runs; runs > maxRuns {
		t.Fatalf("a demotion left %d runs", runs)
	}
}
