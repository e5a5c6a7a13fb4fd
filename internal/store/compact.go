package store

import (
	"fmt"
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

// Compaction thresholds. A partition's overlay is flushed to a run once
// it holds flushMin pairs AND at least 1/4th of the partition's run
// pairs — the adaptive second condition keeps the run count roughly
// constant (each flush is a fixed fraction of the partition) instead of
// letting runs pile up linearly with partition size, and the 1/4 ratio
// keeps flushes big enough that merge traffic stays a small multiple of
// the ingest rate. flushMax overrides the ratio: a flush runs under the
// partition write lock, so letting the overlay scale with a huge
// partition would turn each flush into an O(partition) writer stall —
// the cap bounds any single flush (and hence the pause it can inflict)
// to a fixed size, and the size-tiered merge keeps the extra runs
// logarithmic. Tombstones are purged once they reach half the run
// pairs, amortising the O(run pairs) rebuild against the removals that
// created them.
const (
	flushMin = 8192
	flushMax = 1 << 16
	purgeMin = 256
)

// compactionDue reports whether the partition's overlay or tombstones
// have outgrown their thresholds. Callers hold the partition lock.
func (p *partition) compactionDue() bool {
	if p.onum >= flushMin && (p.onum >= flushMax || p.onum*4 >= p.rp) {
		return true
	}
	return p.tombN >= purgeMin && p.tombN*2 >= p.rp
}

// enqueueCompact hands a partition to the background compactor. The
// queued flag dedups enqueues; the worker goroutine is spawned lazily
// and exits when the queue drains, so idle stores own no goroutine.
// Safe to call while holding stripe/partition locks: it only touches
// the queue mutex, which is a leaf in the lock order.
func (st *Store) enqueueCompact(pred rdf.ID, p *partition) {
	if !st.autoCompact.Load() {
		return
	}
	if p.queued.Swap(true) {
		return
	}
	st.comp.mu.Lock()
	st.comp.queue = append(st.comp.queue, pred)
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
	// degraded health state instead of letting overlay debt grow
	// silently.
	var cur rdf.ID
	var active bool
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		st.comp.mu.Lock()
		if active {
			// The in-flight partition was dequeued with queued still
			// true (compactPredicate re-arms it only mid-pass): put it
			// back at the front or no one will ever compact it again.
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

// compactPredicate flushes the partition's overlay, purges tombstones
// when they dominate, and size-tier merges the run tail. All run-slice
// writers (this, Compact, FlushOverlays) serialize on workMu, which is
// what lets the merge itself — the expensive part — run outside the
// partition lock: nothing else can change p.runs meanwhile, and
// concurrent adds/removes only touch the overlay and tombstones.
func (st *Store) compactPredicate(pred rdf.ID) {
	if h := testHookCompact.Load(); h != nil {
		(*h)()
	}
	st.workMu.Lock()
	defer st.workMu.Unlock()
	str := st.stripeFor(pred)
	str.mu.RLock()
	p := str.parts[pred]
	str.mu.RUnlock()
	if p == nil {
		return
	}
	// Compaction runs on a background goroutine with no request to
	// attribute it to, so each pass is its own trace root: the flight
	// recorder catches the slow ones (big merges) the same way it
	// catches slow ingest flights.
	sp := trace.StartRoot("compact.predicate")
	sp.SetInt("predicate", int64(pred))
	defer sp.End()
	// Re-arm before working: a mutation landing mid-compaction may
	// legitimately need to re-enqueue the partition.
	p.queued.Store(false)

	p.mu.Lock()
	fsp := sp.Child("compact.flush")
	st.flushLocked(p)
	fsp.End()
	if p.tombN >= purgeMin && p.tombN*2 >= p.rp {
		psp := sp.Child("compact.purge")
		st.purgeLocked(p)
		psp.End()
		p.mu.Unlock()
		return
	}
	// Size-tiered tail merge (binary-counter shape): absorb the newest
	// runs while each predecessor is at most twice the absorbed total,
	// leaving run sizes geometric. Run count stays O(log) and total
	// merge work amortises to O(n log n) over a partition's life.
	i := len(p.runs) - 1
	if i < 1 {
		p.mu.Unlock()
		return
	}
	total := p.runs[i].pairs
	for i > 0 && p.runs[i-1].pairs <= 2*total {
		total += p.runs[i-1].pairs
		i--
	}
	if len(p.runs)-i < 2 {
		p.mu.Unlock()
		return
	}
	suffix := make([]*run, len(p.runs)-i)
	copy(suffix, p.runs[i:])
	p.mu.Unlock()

	var t0 time.Time
	if m := st.metrics.Load(); m != nil {
		t0 = obs.NowIfEnabled()
	}
	msp := sp.Child("compact.merge")
	msp.SetInt("runs", int64(len(suffix)))
	merged := mergeRuns(suffix) // off-lock; workMu pins p.runs
	msp.SetInt("pairs", int64(merged.pairs))
	msp.End()

	p.mu.Lock()
	runs := make([]*run, 0, i+1)
	runs = append(runs, p.runs[:i]...)
	runs = append(runs, merged)
	p.runs = runs
	p.mu.Unlock()
	if m := st.metrics.Load(); m != nil {
		m.MergeSeconds.ObserveSince(t0)
	}
	st.cMerges.Add(1)
	st.cPairsMerged.Add(int64(merged.pairs))
}

// flushLocked seals the overlay into a new immutable run and replaces
// the overlay maps. Logical content is unchanged, so it is transparent
// to active views and to concurrent readers. Callers hold the partition
// lock (write side) and workMu.
func (st *Store) flushLocked(p *partition) {
	if p.onum == 0 {
		return
	}
	var t0 time.Time
	if m := st.metrics.Load(); m != nil {
		t0 = obs.NowIfEnabled()
		defer func() { m.FlushSeconds.ObserveSince(t0) }()
	}
	r := buildRunFromOverlay(p.so, p.os, p.onum)
	runs := make([]*run, 0, len(p.runs)+1)
	runs = append(runs, p.runs...)
	runs = append(runs, r)
	p.runs = runs
	p.rp += r.pairs
	p.so = make(map[rdf.ID]idSet, 8)
	p.os = make(map[rdf.ID]idSet, 8)
	p.onum = 0
	if invariantsEnabled {
		p.assertOverlayShape(rdf.Any, rdf.Any) // nothing touched: onum is 0, full scan
	}
	st.cFlushes.Add(1)
}

// purgeLocked rebuilds the partition's runs with tombstoned pairs
// dropped, leaving a single run and no tombstones. O(run pairs) under
// the partition lock, so it only triggers once tombstones dominate.
// Logical content is unchanged, so active views stay correct. Callers
// hold the partition lock (write side) and workMu.
func (st *Store) purgeLocked(p *partition) {
	if p.tombN == 0 || len(p.runs) == 0 {
		return
	}
	var t0 time.Time
	if m := st.metrics.Load(); m != nil {
		t0 = obs.NowIfEnabled()
		defer func() { m.PurgeSeconds.ObserveSince(t0) }()
	}
	ps := make([]pair, 0, p.rp-p.tombN)
	p.forEachLiveInRuns(func(s, o rdf.ID) { ps = append(ps, pair{s: s, o: o}) })
	sortPairs(ps)
	p.tomb = nil
	p.tombN = 0
	if len(ps) == 0 {
		p.runs = nil
		p.rp = 0
	} else {
		r := buildRun(ps)
		p.runs = []*run{r}
		p.rp = r.pairs
	}
	st.cPurges.Add(1)
	st.cPairsMerged.Add(int64(len(ps)))
}

// SetAutoCompact enables or disables the background compactor (enabled
// by default). With it off the store never forms runs on its own — the
// pure map-overlay behaviour, used as the baseline in benchmarks and
// cross-checked against in property tests. Compact and FlushOverlays
// still work when invoked explicitly.
func (st *Store) SetAutoCompact(on bool) { st.autoCompact.Store(on) }

// Compact synchronously flushes every overlay, purges all tombstones
// and merges each partition down to a single run — the fully compacted
// state where probes are one span lookup and checkpoints stream runs
// verbatim.
func (st *Store) Compact() {
	st.workMu.Lock()
	defer st.workMu.Unlock()
	for i := range st.stripes {
		str := &st.stripes[i]
		str.mu.RLock()
		parts := make([]*partition, 0, len(str.parts))
		for _, p := range str.parts {
			parts = append(parts, p)
		}
		str.mu.RUnlock()
		for _, p := range parts {
			p.mu.Lock()
			st.flushLocked(p)
			if p.tombN > 0 {
				st.purgeLocked(p) // rebuilds to a single run
				p.mu.Unlock()
				continue
			}
			if len(p.runs) < 2 {
				p.mu.Unlock()
				continue
			}
			runs := make([]*run, len(p.runs))
			copy(runs, p.runs)
			p.mu.Unlock()
			var t0 time.Time
			if m := st.metrics.Load(); m != nil {
				t0 = obs.NowIfEnabled()
			}
			merged := mergeRuns(runs)
			p.mu.Lock()
			p.runs = []*run{merged}
			p.mu.Unlock()
			if m := st.metrics.Load(); m != nil {
				m.MergeSeconds.ObserveSince(t0)
			}
			st.cMerges.Add(1)
			st.cPairsMerged.Add(int64(merged.pairs))
		}
	}
}

// FlushOverlays seals every partition's overlay into a run without
// merging — a cheap O(total overlay) pass. Checkpoints call it right
// before marking: a partition whose overlay is empty and tombstones are
// clear streams its frozen contents run-by-run on the verbatim fast
// path, with no journal compensation and no per-pair checks.
func (st *Store) FlushOverlays() {
	st.workMu.Lock()
	defer st.workMu.Unlock()
	for i := range st.stripes {
		str := &st.stripes[i]
		str.mu.RLock()
		parts := make([]*partition, 0, len(str.parts))
		for _, p := range str.parts {
			parts = append(parts, p)
		}
		str.mu.RUnlock()
		for _, p := range parts {
			p.mu.Lock()
			st.flushLocked(p)
			p.mu.Unlock()
		}
	}
}
