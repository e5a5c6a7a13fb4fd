package store

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// testHookCompact, when set, runs at the start of every background
// compaction pass. Tests use it to inject failures (panics) into the
// worker; always nil outside tests. Atomic because the test goroutine
// installs it while the compactor goroutine reads it.
var testHookCompact atomic.Pointer[func()]

// SetCompactTestHook installs f as the background-compaction test hook
// (nil clears it).
func SetCompactTestHook(f func()) {
	if f == nil {
		testHookCompact.Store(nil)
		return
	}
	testHookCompact.Store(&f)
}

// Merge policy. A merge takes a window of at least fanIn adjacent runs
// in which each run, walking from the newest towards the oldest, holds
// no more than twice the pairs of the largest run already in the
// window (see mergeWindow). Runs of similar size thus merge fanIn at a
// time into a run about fanIn times larger, like the digits of a
// base-fanIn counter: a predicate holds about (fanIn-1)·log_fanIn(n)
// runs, each pair is rewritten about log_fanIn(n) times, and the tiny
// runs of a trickle are absorbed by the first tier. A small run stranded
// behind a larger one joins the next window that reaches it. maxRuns is
// the hard bound: a writer that would take a predicate past it (the
// compactor off, retired or behind) merges it down itself before
// appending — at maxRuns runs for an add or a removal, and at maxRuns-1
// for a promotion or demotion, which appends a marker run and an add run.
//
// A due window is enqueued for the compactor, not merged by the writer
// that made it due, even though that writer already holds the
// predicate. Merging on the writer path was measured (2-core guest,
// three seeds a workload, the compactor never running): the median
// insert-to-visible latency rose on every run, by 10 %, 77 % and 19 %
// on a deep RDFS closure and by 34 %, 39 % and 9 % under retract
// churn. The merge is O(window) work that blocks the next batch; the
// compactor does it beside ingest instead.
const (
	fanIn   = 4
	maxRuns = 64
)

// windowAt returns the start of the merge window whose newest run is
// runs[j-1].
func windowAt(runs []*run, j int) int {
	i, largest := j-1, runs[j-1].pairs
	for i > 0 && runs[i-1].pairs <= 2*largest {
		i--
		largest = max(largest, runs[i].pairs)
	}
	return i
}

// mergeWindow returns the newest window of runs [i, j) due for a merge.
func mergeWindow(runs []*run) (i, j int, ok bool) {
	for j := len(runs); j >= fanIn; j-- {
		if i := windowAt(runs, j); j-i >= fanIn {
			return i, j, true
		}
	}
	return 0, 0, false
}

// mergeDue reports whether the window ending at the newest run is due —
// the only window an append can make due.
func mergeDue(runs []*run) bool {
	return len(runs) >= fanIn && len(runs)-windowAt(runs, len(runs)) >= fanIn
}

// enqueueCompact hands predicate p to the background compactor, unless
// it is already queued. The worker goroutine is spawned lazily and exits
// when the queue drains, so idle stores own no goroutine. comp.mu is a
// leaf in the lock order.
func (st *Store) enqueueCompact(p rdf.ID) {
	if !st.autoCompact.Load() {
		return
	}
	st.comp.mu.Lock()
	if slices.Contains(st.comp.queue, p) {
		st.comp.mu.Unlock()
		return
	}
	st.comp.queue = append(st.comp.queue, p)
	spawn := !st.comp.running
	if spawn {
		st.comp.running = true
	}
	st.comp.mu.Unlock()
	if spawn {
		go st.compactLoop()
	}
}

// Compactor restart policy: a panicking pass gets compactMaxRestarts
// respawns with doubling delay before the error turns sticky. A clean
// pass resets the budget, so only *consecutive* panics retire the
// worker — a transient cause (a poisoned batch that then compacts, a
// fault-injection hook) heals on its own.
const (
	compactMaxRestarts = 5
	compactRestartBase = 10 * time.Millisecond
)

func (st *Store) compactLoop() {
	// Backstop: a panicking compaction pass must not take the process
	// down (the store itself stays correct — compaction only reshapes
	// physical layout). The worker is respawned after a backoff, up to
	// compactMaxRestarts consecutive panics; then the error is recorded
	// sticky and the worker retires — the serving layer reports it as a
	// degraded health state, and writers merge at the run bound.
	var cur rdf.ID
	var active bool
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		st.comp.mu.Lock()
		if active && !slices.Contains(st.comp.queue, cur) {
			// The in-flight predicate was dequeued: put it back at the
			// front, or no write may ever enqueue it again.
			st.comp.queue = append([]rdf.ID{cur}, st.comp.queue...)
		}
		st.comp.panics++
		if st.comp.panics > compactMaxRestarts {
			if st.comp.err == nil {
				st.comp.err = fmt.Errorf("store: background compaction panic (retired after %d restarts): %v",
					compactMaxRestarts, p)
				st.comp.errSince = time.Now()
			}
			st.comp.running = false
			st.comp.mu.Unlock()
			return
		}
		d := compactRestartBase << (st.comp.panics - 1)
		st.comp.mu.Unlock()
		// running stays true across the window so enqueues keep landing
		// in the queue instead of spawning a second worker.
		time.AfterFunc(d, func() { st.compactLoop() })
	}()
	for {
		st.comp.mu.Lock()
		if len(st.comp.queue) == 0 || st.comp.err != nil {
			st.comp.running = false
			st.comp.mu.Unlock()
			return
		}
		cur = st.comp.queue[0]
		st.comp.queue = st.comp.queue[1:]
		active = true
		st.comp.mu.Unlock()
		st.compactPredicate(cur)
		active = false
		st.comp.mu.Lock()
		st.comp.panics = 0
		st.comp.mu.Unlock()
	}
}

// compactPredicate is one background pass: it merges the predicate's
// due windows until none is left.
func (st *Store) compactPredicate(pred rdf.ID) {
	if h := testHookCompact.Load(); h != nil {
		(*h)()
	}
	if st.root().list(pred) == nil {
		return
	}
	// Compaction runs on a background goroutine with no request to
	// attribute it to, so each pass is its own trace root: the flight
	// recorder catches the slow ones (big merges) the same way it
	// catches slow ingest flights.
	sp := trace.StartRoot("compact.predicate")
	sp.SetInt("predicate", int64(pred))
	defer sp.End()
	st.mergePredicate(pred, false)
}

// mergeDown is the writers' bound: it merges the predicate's due windows
// and, should it still hold more than maxRuns/2 runs, all of them.
func (st *Store) mergeDown(p rdf.ID) {
	st.mergePredicate(p, false)
	if len(st.root().list(p).get()) > maxRuns/2 {
		st.mergePredicate(p, true)
	}
}

// mergePredicate merges predicate p's due windows until none is left, or
// with all set its whole run list into one run. Merges serialize on
// workMu, which is what lets the merge itself — the expensive part — run
// outside Store.mu: writers only append, so the merged window is still
// in place when the result is swapped in.
func (st *Store) mergePredicate(p rdf.ID, all bool) {
	st.workMu.Lock()
	defer st.workMu.Unlock()
	for {
		rl := st.root().list(p)
		runs := rl.get()
		i, j, ok := 0, len(runs), len(runs) > 1
		if !all {
			i, j, ok = mergeWindow(runs)
		}
		if !ok {
			return
		}
		var t0 time.Time
		if m := st.metrics.Load(); m != nil {
			t0 = obs.NowIfEnabled()
		}
		window := runs[i:j]
		merged := mergeRange(runs[:i], window) // off-lock; workMu pins the window
		st.swap(p, rl, runs, i, j, merged)
		if m := st.metrics.Load(); m != nil {
			m.MergeSeconds.ObserveSince(t0)
		}
		st.cMerges.Add(1)
		if slices.ContainsFunc(window, func(r *run) bool { return r.del }) {
			st.cPurges.Add(1)
		}
		for _, r := range window {
			st.cPairsMerged.Add(int64(r.pairs))
		}
		if all {
			return
		}
	}
}

// swap replaces the window runs[i:j] of rl, predicate p's runList when
// the merge began, by merged. p's current runList is rl, or rl's runs
// plus the runs appended since (or another list, once drained); both get
// the merged list, so views frozen since p's last write read the merged
// runs too.
func (st *Store) swap(p rdf.ID, rl *runList, runs []*run, i, j int, merged []*run) {
	splice := func(runs []*run) []*run {
		return slices.Concat(runs[:i], merged, runs[j:])
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.root().list(p)
	if now := cur.get(); cur != rl && len(now) >= len(runs) && slices.Equal(now[:len(runs)], runs) {
		next := splice(now)
		cur.runs.Store(&next)
		if invariantsEnabled {
			checkRunList(next, cur.n, merged...)
		}
	}
	next := splice(runs)
	rl.runs.Store(&next)
	if invariantsEnabled {
		checkRunList(next, rl.n, merged...)
	}
}

// SetAutoCompact enables or disables the background compactor (enabled
// by default). With it off the store merges runs only when Compact is
// called or a write would take a predicate past maxRuns runs — a
// deterministic layout for tests.
func (st *Store) SetAutoCompact(on bool) { st.autoCompact.Store(on) }

// Compact synchronously merges each predicate's runs down to a single
// run, cancelling every delete marker against its add — the fully
// compacted state where probes are one span lookup.
func (st *Store) Compact() {
	for _, p := range st.root().preds {
		st.mergePredicate(p, true)
	}
}
