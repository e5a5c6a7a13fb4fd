// Package store implements Slider's in-memory triple store.
//
// The store follows the vertical partitioning approach of Abadi et al.
// (PVLDB 2007) as adopted by the paper's §2.2: triples are indexed first
// by predicate, then by subject, then by object — and symmetrically by
// predicate, object, subject — which is the near-optimal layout for the
// access patterns of RDFS/OWL rule bodies (walk a predicate's extent, or
// probe by (predicate, subject) / (predicate, object)).
//
// Within a partition the physical layout is LSM-shaped: a small mutable
// map overlay (so/os) absorbs writes at hash-map speed, while the bulk
// of the partition lives in immutable sorted runs (see runs.go) that a
// background compactor forms by flushing the overlay and size-tier
// merging (see compact.go). Removal of a run pair tombstones it; the
// compactor purges tombstones once they dominate. The split keeps
// maintenance work proportional to the delta, not the base: probes are
// an overlay map hit or a binary search of a run span, ObjectsAppend/
// SubjectsAppend return ascending sorted results (the contract the
// rule joins' galloping intersection and the query planner rely on),
// and a fully compacted partition streams its pairs verbatim — no
// journal compensation, no per-pair checks — to checkpoints.
//
// Concurrency uses two levels of lock striping instead of one global
// RWMutex, so parallel rule-module instances and parallel input managers
// do not serialize on a single lock:
//
//   - the predicate→partition map is sharded across numStripes stripes
//     (selected by a hash of the predicate ID), each guarded by its own
//     RWMutex;
//   - each partition additionally carries its own RWMutex guarding the
//     hot overlay maps, tombstones and run slice, so writers to
//     different predicates within one stripe still proceed in parallel.
//
// Locking protocol: a partition's state is only ever touched while
// holding the owning stripe's lock (read side for normal operations) plus
// the partition lock. Remove takes the stripe's write lock so it can
// prune drained partitions without racing concurrent adders that hold a
// stale *partition. Run slices are replaced wholesale under the
// partition lock and never mutated in place, so a reader that captured
// the slice under the lock may keep reading it lock-free; all run-slice
// writers additionally serialize on Store.workMu so merges run off the
// partition lock. Iteration entry points (ForEach, ForEachWithPredicate)
// copy the visited pairs under the locks and invoke the callback outside
// them, so callbacks may freely read — or even mutate — the store.
//
// The overlay/run/tombstone structure keeps Add idempotent and lets it
// report whether a triple was new — the mechanism behind Slider's
// "duplicates limitation".
//
// The cross-package lock order (workMu before freezeMu before stripe
// before partition locks, with predMu and the compaction-queue mutex as
// leaves) is catalogued in INVARIANTS.md and enforced by cmd/slidervet's
// lockorder checker.
package store

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
)

// stripeBits sets the number of lock stripes the predicate map is
// sharded across: numStripes = 2^stripeBits.
const (
	stripeBits = 6
	numStripes = 1 << stripeBits
)

// idSet is a set of term IDs.
type idSet map[rdf.ID]struct{}

// sEntry is one subject's slot in a partition's so map: its overlay
// objects plus its live degree across overlay and runs. deg is the
// spine's membership record (a subject is appended exactly when its
// entry is created) and makes drained-subject accounting exact across
// overlay flushes, which move pairs without changing degrees.
type sEntry struct {
	objs idSet
	deg  int32
}

// partition holds all triples sharing one predicate. Physically a pair
// lives in exactly one of the mutable overlay (so/os) or one immutable
// run; a run pair that has been removed is marked in tomb rather than
// rewritten. That disjointness invariant is what makes run merges plain
// unions and lets them run off the partition lock. All fields are
// guarded by mu and only accessed while also holding the owning
// stripe's lock (see the package comment for the protocol).
type partition struct {
	mu sync.RWMutex

	// so/os are the mutable delta overlay: subject → objects and
	// object → subjects for pairs not (live) in any run. onum counts
	// overlay pairs. so doubles as the spine membership index: a
	// subject's entry persists (with empty objs) while its pairs live
	// only in runs, and carries the subject's live degree, so the add
	// hot path pays a single subject-map probe. os holds overlay pairs
	// only and empty sets are deleted eagerly.
	so   map[rdf.ID]*sEntry
	os   map[rdf.ID]idSet
	onum int

	// dirty lists the subjects whose entry gained an overlay set since
	// the last flush (appended exactly on the nil→allocated transition,
	// so it is duplicate-free). It lets a flush visit only overlay
	// subjects instead of walking the whole spine-sized so map.
	dirty []rdf.ID

	// runs are the immutable sorted segments, oldest first. The slice
	// is replaced wholesale under mu (never mutated in place), so a
	// capture taken under the lock stays valid lock-free. rp counts the
	// physical pairs across runs, including tombstoned ones.
	runs []*run
	rp   int

	// tomb marks run pairs as removed (subject → dead objects); tombN
	// counts them. Live pair count is rp - tombN + onum == n.
	tomb  map[rdf.ID]idSet
	tombN int

	n int

	// subjects lists every distinct subject ever inserted, in insertion
	// order, with no duplicates. Views iterate it by index, which allows
	// bounded lock holds: a view visits a chunk of subjects at a time
	// instead of copying the whole — possibly store-sized — partition
	// under the lock. drained counts subjects whose live degree is
	// currently zero; when they dominate, View.Release compacts the
	// spine so a retract-heavy workload does not retain them forever.
	subjects []rdf.ID
	drained  int

	// born is the newest view epoch that had been issued when the
	// partition was created (0 when no view was active). Epochs are
	// monotonic, so a view of epoch e skips partitions with born >= e:
	// every pair in them postdates that view's freeze.
	born uint64
	// journals compensates each active View for mutations made after its
	// freeze: epoch → subject → object → whether the pair was present at
	// that view's freeze time. Maintained under mu by the mutating paths,
	// consulted under mu by the views; an epoch's entry is dropped when
	// its view releases. Journals record logical changes only — flushes,
	// merges and purges move pairs physically but never journal.
	journals map[uint64]*pjournal

	// queued dedups background-compactor enqueues for this partition.
	queued atomic.Bool
}

// pjournal is one view's compensation journal for one partition. added
// and removed count the false/true entries so the frozen size is O(1).
type pjournal struct {
	m              map[rdf.ID]map[rdf.ID]bool
	added, removed int
}

// sub returns the journaled objects of subject s; nil-safe so iteration
// code can treat "no journal" and "no entries for s" alike.
func (j *pjournal) sub(s rdf.ID) map[rdf.ID]bool {
	if j == nil {
		return nil
	}
	return j.m[s]
}

func newPartition(epoch uint64) *partition {
	return &partition{
		so:   make(map[rdf.ID]*sEntry),
		os:   make(map[rdf.ID]idSet),
		born: epoch,
	}
}

// journalFor returns the journal for epoch e, initialising it on first
// use. Callers hold mu.
func (p *partition) journalFor(e uint64) *pjournal {
	j, ok := p.journals[e]
	if !ok {
		if p.journals == nil {
			p.journals = make(map[uint64]*pjournal, 2)
		}
		j = &pjournal{m: make(map[rdf.ID]map[rdf.ID]bool, 8)}
		p.journals[e] = j
	}
	return j
}

// noteAdd records, for the view frozen at epoch e, that (s,o) was
// freshly inserted after the freeze. Callers hold mu and have checked
// p.born < e.
func (p *partition) noteAdd(e uint64, s, o rdf.ID) {
	j := p.journalFor(e)
	js := j.m[s]
	if present, ok := js[o]; ok {
		// present==true: the pair existed at freeze time, was removed,
		// and is now back — net zero, drop the entry. present==false is
		// impossible: such a pair is live, so its insert cannot be fresh.
		if present {
			delete(js, o)
			j.removed--
		}
		return
	}
	if js == nil {
		js = make(map[rdf.ID]bool, 2)
		j.m[s] = js
	}
	js[o] = false // absent at freeze time
	j.added++
}

// noteRemove records, for the view frozen at epoch e, that (s,o) was
// removed after the freeze. Callers hold mu and have checked p.born < e.
func (p *partition) noteRemove(e uint64, s, o rdf.ID) {
	j := p.journalFor(e)
	js := j.m[s]
	if present, ok := js[o]; ok {
		// present==false: added after the freeze, now gone again — net
		// zero. present==true is impossible: such a pair is already
		// absent, so there is nothing to remove.
		if !present {
			delete(js, o)
			j.added--
		}
		return
	}
	if js == nil {
		js = make(map[rdf.ID]bool, 2)
		j.m[s] = js
	}
	js[o] = true // present at freeze time
	j.removed++
}

// maybeCompact rebuilds the subject spine, dropping subjects whose live
// degree is zero, once they dominate the partition. Rebuilding is
// O(partition), so the threshold amortises it against the removals that
// created the drained entries. Callers hold mu (write side) and must
// ensure no View is active: the rebuild shifts spine indices a view's
// chunked walk may be holding.
func (p *partition) maybeCompact() {
	if p.drained == 0 || p.drained*2 < len(p.subjects) {
		return
	}
	kept := p.subjects[:0]
	for _, sub := range p.subjects {
		if e := p.so[sub]; e == nil || e.deg == 0 {
			delete(p.so, sub)
			continue
		}
		kept = append(kept, sub)
	}
	p.subjects = kept
	p.drained = 0
}

// frozenLen reports the partition's pair count at freeze time for the
// view of epoch e. Callers hold mu (read side suffices).
func (p *partition) frozenLen(e uint64) int {
	if p.born >= e {
		return 0
	}
	n := p.n
	if j := p.journals[e]; j != nil {
		n += j.removed - j.added
	}
	return n
}

// tombHas reports whether (s,o) is tombstoned. Callers hold mu.
func (p *partition) tombHas(s, o rdf.ID) bool {
	ts, ok := p.tomb[s]
	if !ok {
		return false
	}
	_, ok = ts[o]
	return ok
}

// runsContain reports whether any run physically holds (s,o), newest
// first — recently flushed pairs are the likeliest duplicate-insert
// targets. Callers hold mu.
func (p *partition) runsContain(s, o rdf.ID) bool {
	for i := len(p.runs) - 1; i >= 0; i-- {
		if p.runs[i].contains(s, o) {
			return true
		}
	}
	return false
}

// add inserts (s,o) and reports whether it was absent. Callers hold the
// partition lock (write side).
func (p *partition) add(s, o rdf.ID) bool {
	e := p.so[s]
	if e == nil {
		// First entry ever for this subject (drained entries stay in
		// the map, empty), so the spine append cannot duplicate.
		e = &sEntry{}
		p.so[s] = e
		p.subjects = append(p.subjects, s)
	} else if _, dup := e.objs[o]; dup {
		return false
	} else if e.deg == 0 {
		p.drained-- // a drained subject comes back to life
	}
	if p.tombN > 0 && p.tombHas(s, o) {
		// Resurrect a tombstoned run pair in place: dropping the
		// tombstone makes the run's copy live again, preserving the
		// one-physical-home invariant without touching the overlay.
		ts := p.tomb[s]
		delete(ts, o)
		if len(ts) == 0 {
			delete(p.tomb, s)
		}
		p.tombN--
	} else if int(e.deg) > len(e.objs) && p.runsContain(s, o) {
		// Already live in a run; undo the speculative bookkeeping. The
		// deg guard skips the per-run probes whenever the subject's live
		// pairs all sit in the overlay (deg == overlay size — the fresh-
		// ingest common case): a run copy that is not live here must be
		// tombstoned, and the branch above already handled that.
		if e.deg == 0 {
			p.drained++
		}
		return false
	} else {
		if e.objs == nil {
			e.objs = make(idSet, 2)
			p.dirty = append(p.dirty, s)
		}
		e.objs[o] = struct{}{}
		subs := p.os[o]
		if subs == nil {
			subs = make(idSet, 2)
			p.os[o] = subs
		}
		subs[s] = struct{}{}
		p.onum++
	}
	e.deg++
	p.n++
	if invariantsEnabled {
		p.assertAccounting()
		p.assertLive(s, o)
	}
	return true
}

// remove deletes (s,o) and reports whether it was present: overlay pairs
// are deleted outright, run pairs are tombstoned. Callers hold the
// partition lock (write side).
func (p *partition) remove(s, o rdf.ID) bool {
	e := p.so[s]
	if e == nil {
		return false // never a spine subject, so no live pairs at all
	}
	if _, ok := e.objs[o]; ok {
		delete(e.objs, o)
		subs := p.os[o]
		delete(subs, s)
		if len(subs) == 0 {
			delete(p.os, o)
		}
		p.onum--
		p.removed(e)
		if invariantsEnabled {
			p.assertAccounting()
			p.assertDead(s, o)
		}
		return true
	}
	// deg == overlay size means no live run pair for this subject (the
	// overlay branch above already missed), so nothing is left to remove.
	if int(e.deg) == len(e.objs) || p.tombHas(s, o) || !p.runsContain(s, o) {
		return false
	}
	ts := p.tomb[s]
	if ts == nil {
		if p.tomb == nil {
			p.tomb = make(map[rdf.ID]idSet, 4)
		}
		ts = make(idSet, 2)
		p.tomb[s] = ts
	}
	ts[o] = struct{}{}
	p.tombN++
	p.removed(e)
	if invariantsEnabled {
		p.assertAccounting()
		p.assertDead(s, o)
	}
	return true
}

// removed does the degree and count bookkeeping shared by both removal
// paths. Callers hold the partition lock (write side).
func (p *partition) removed(e *sEntry) {
	e.deg--
	if e.deg == 0 {
		p.drained++
	}
	p.n--
}

// contains reports whether (s,o) is live: an overlay map probe, then —
// unless tombstoned — a binary-search probe of the runs. Callers hold
// the partition lock (read side suffices).
func (p *partition) contains(s, o rdf.ID) bool {
	e := p.so[s]
	if e == nil {
		// Not a spine subject: any run copy it ever had would be
		// tombstoned (pruning requires a drained subject), hence dead.
		return false
	}
	if _, ok := e.objs[o]; ok {
		return true
	}
	// deg == overlay size: every live pair is in the overlay, which
	// just missed — no need to probe the runs.
	if int(e.deg) == len(e.objs) {
		return false
	}
	if p.tombN > 0 && p.tombHas(s, o) {
		return false
	}
	return p.runsContain(s, o)
}

// forEachLive calls f for every live (s,o) pair: run pairs minus
// tombstones, then the overlay. Callers hold the partition lock.
func (p *partition) forEachLive(f func(s, o rdf.ID)) {
	for _, r := range p.runs {
		for i, s := range r.subs {
			objs := r.objs[r.subOff[i]:r.subOff[i+1]]
			if p.tombN == 0 {
				for _, o := range objs {
					f(s, o)
				}
				continue
			}
			ts := p.tomb[s]
			for _, o := range objs {
				if _, dead := ts[o]; dead {
					continue
				}
				f(s, o)
			}
		}
	}
	for s, e := range p.so {
		for o := range e.objs {
			f(s, o)
		}
	}
}

// objectsAppend appends the live objects of s to dst in ascending order.
// Each run span is already sorted, so the common compacted case (one
// contributing run, empty overlay) is a straight copy with no sort; a
// final sort only runs when several sources — or the unsorted overlay —
// contributed. Callers hold the partition lock (read side suffices).
func (p *partition) objectsAppend(dst []rdf.ID, s rdf.ID) []rdf.ID {
	start := len(dst)
	srcs := 0
	needSort := false
	if e := p.so[s]; e != nil && len(e.objs) > 0 {
		for o := range e.objs {
			dst = append(dst, o)
		}
		srcs++
		needSort = true
	}
	if len(p.runs) > 0 {
		ts := p.tomb[s]
		for _, r := range p.runs {
			ro := r.objectsOf(s)
			if len(ro) == 0 {
				continue
			}
			if len(ts) == 0 {
				dst = append(dst, ro...)
				srcs++
				continue
			}
			before := len(dst)
			for _, o := range ro {
				if _, dead := ts[o]; dead {
					continue
				}
				dst = append(dst, o)
			}
			if len(dst) > before {
				srcs++
			}
		}
	}
	if needSort || srcs > 1 {
		slices.Sort(dst[start:])
	}
	return dst
}

// subjectsAppend appends the live subjects of o to dst in ascending
// order — the object-direction mirror of objectsAppend. Callers hold
// the partition lock (read side suffices).
func (p *partition) subjectsAppend(dst []rdf.ID, o rdf.ID) []rdf.ID {
	start := len(dst)
	srcs := 0
	needSort := false
	if subs := p.os[o]; len(subs) > 0 {
		for s := range subs {
			dst = append(dst, s)
		}
		srcs++
		needSort = true
	}
	for _, r := range p.runs {
		rs := r.subjectsOf(o)
		if len(rs) == 0 {
			continue
		}
		if p.tombN == 0 {
			dst = append(dst, rs...)
			srcs++
			continue
		}
		before := len(dst)
		for _, s := range rs {
			if p.tombHas(s, o) {
				continue
			}
			dst = append(dst, s)
		}
		if len(dst) > before {
			srcs++
		}
	}
	if needSort || srcs > 1 {
		slices.Sort(dst[start:])
	}
	return dst
}

// pair is one (subject, object) of a partition, used for copy-then-call
// iteration.
type pair struct {
	s, o rdf.ID
}

// stripe is one shard of the predicate→partition map.
type stripe struct {
	mu    sync.RWMutex
	parts map[rdf.ID]*partition
}

// Store is a concurrent, duplicate-free, vertically partitioned triple
// store. The zero value is not usable; call New.
type Store struct {
	stripes [numStripes]stripe
	size    atomic.Int64

	// version counts content mutations (monotonic; bumped at least once
	// per mutating call that changed anything). Readers use it as a
	// cheap "has the store moved since I looked" check — the serving
	// layer's shared-view cache keys its freshness on it.
	version atomic.Uint64

	// active is the sorted set of live View epochs (nil when none).
	// Mutators load it inside the partition lock and journal their
	// changes into every epoch that predates the partition, so each view
	// can reconstruct its freeze-time state. The slice is immutable once
	// published; Freeze/Release swap in fresh copies under freezeMu.
	active atomic.Pointer[[]uint64]
	// freezeMu serializes Freeze/Release; epochSeq (guarded by it) is
	// the last epoch handed out and is never reused.
	freezeMu sync.Mutex
	epochSeq uint64

	// predMu guards preds, the sorted registry of predicates with a
	// partition. Maintained incrementally at partition create/prune so
	// Predicates() is a copy, not a collect-and-sort per call.
	predMu sync.RWMutex
	preds  []rdf.ID

	// Background compaction state (see compact.go). autoCompact gates
	// the background worker; workMu serializes all run-slice writers;
	// the c* atomics are the compaction counters surfaced by Stats.
	autoCompact atomic.Bool
	comp        struct {
		mu       sync.Mutex
		queue    []rdf.ID
		running  bool
		panics   int       // consecutive worker panics; reset by a clean pass
		err      error     // sticky error once the restart budget is spent
		errSince time.Time // when err was recorded
	}
	workMu sync.Mutex

	cFlushes, cMerges, cPurges, cPairsMerged atomic.Int64

	// metrics optionally instruments compaction durations (SetMetrics);
	// loaded atomically so the background compactor can race a late
	// SetMetrics without a data race.
	metrics atomic.Pointer[Metrics]
}

// New returns an empty store with background compaction enabled.
func New() *Store {
	st := &Store{}
	for i := range st.stripes {
		st.stripes[i].parts = make(map[rdf.ID]*partition, 8)
	}
	st.autoCompact.Store(true)
	return st
}

// stripeFor selects the stripe owning predicate p. Predicate IDs are
// dense per kind (with the kind in the top bits), so a Fibonacci spread
// of the raw value distributes consecutive IDs across stripes.
func (st *Store) stripeFor(p rdf.ID) *stripe {
	h := uint64(p) * 0x9E3779B97F4A7C15
	return &st.stripes[h>>(64-stripeBits)]
}

// Version returns the store's mutation counter. It advances on every
// call that changed content; two equal readings with no mutation in
// flight mean the store's contents are unchanged between them.
func (st *Store) Version() uint64 { return st.version.Load() }

// newestEpoch returns the newest active view epoch (0 when none) — the
// born stamp for partitions created now.
func (st *Store) newestEpoch() uint64 {
	if eps := st.active.Load(); eps != nil && len(*eps) > 0 {
		return (*eps)[len(*eps)-1]
	}
	return 0
}

// registerPred adds p to the sorted predicate registry. Called at
// partition creation; predMu is a leaf lock, so calling under stripe
// locks is safe.
func (st *Store) registerPred(p rdf.ID) {
	st.predMu.Lock()
	if i, found := slices.BinarySearch(st.preds, p); !found {
		st.preds = slices.Insert(st.preds, i, p)
	}
	st.predMu.Unlock()
}

// unregisterPred removes p from the predicate registry. Called when a
// drained partition is pruned.
func (st *Store) unregisterPred(p rdf.ID) {
	st.predMu.Lock()
	if i, found := slices.BinarySearch(st.preds, p); found {
		st.preds = slices.Delete(st.preds, i, i+1)
	}
	st.predMu.Unlock()
}

// noteAddAll journals a fresh insertion into every active view the
// partition predates. Callers hold the partition lock and pass the
// epoch set loaded inside it.
func noteAddAll(eps *[]uint64, p *partition, s, o rdf.ID) {
	if eps == nil {
		return
	}
	for _, e := range *eps {
		if p.born < e {
			p.noteAdd(e, s, o)
		}
	}
}

// noteRemoveAll journals a removal into every active view the partition
// predates. Callers hold the partition lock.
func noteRemoveAll(eps *[]uint64, p *partition, s, o rdf.ID) {
	if eps == nil {
		return
	}
	for _, e := range *eps {
		if p.born < e {
			p.noteRemove(e, s, o)
		}
	}
}

// Add inserts a triple and reports whether it was new. Duplicate inserts
// are cheap no-ops.
func (st *Store) Add(t rdf.Triple) bool {
	s := st.stripeFor(t.P)
	s.mu.RLock()
	p, ok := s.parts[t.P]
	if ok {
		p.mu.Lock()
		fresh := p.add(t.S, t.O)
		// size is updated before the locks are released so it can never
		// lag behind a Clear that sums partition counts under the locks.
		if fresh {
			st.size.Add(1)
			st.version.Add(1)
			noteAddAll(st.active.Load(), p, t.S, t.O)
		}
		due := fresh && p.compactionDue()
		p.mu.Unlock()
		s.mu.RUnlock()
		if due {
			st.enqueueCompact(t.P, p)
		}
		return fresh
	}
	s.mu.RUnlock()
	s.mu.Lock()
	p, ok = s.parts[t.P]
	if !ok {
		p = newPartition(st.newestEpoch())
		s.parts[t.P] = p
		st.registerPred(t.P)
	}
	p.mu.Lock()
	fresh := p.add(t.S, t.O)
	if fresh {
		st.size.Add(1)
		st.version.Add(1)
		noteAddAll(st.active.Load(), p, t.S, t.O)
	}
	due := fresh && p.compactionDue()
	p.mu.Unlock()
	s.mu.Unlock()
	if due {
		st.enqueueCompact(t.P, p)
	}
	return fresh
}

// AddBatch inserts all triples and returns those that were new,
// preserving input order. Triples are grouped by predicate so each
// partition lock is taken once per distinct predicate instead of once
// per triple — the write-path fast lane for batch ingestion.
func (st *Store) AddBatch(ts []rdf.Triple) []rdf.Triple {
	switch len(ts) {
	case 0:
		return nil
	case 1:
		if st.Add(ts[0]) {
			return ts[:1:1]
		}
		return nil
	}
	fresh := make([]bool, len(ts))
	byPred := make(map[rdf.ID][]int, 8)
	for i, t := range ts {
		byPred[t.P] = append(byPred[t.P], i)
	}
	n := 0
	for p, idxs := range byPred {
		n += st.addGroup(p, ts, idxs, fresh)
	}
	if n == 0 {
		return nil
	}
	out := make([]rdf.Triple, 0, n)
	for i, t := range ts {
		if fresh[i] {
			out = append(out, t)
		}
	}
	return out
}

// addGroup inserts all triples at the given indices (sharing predicate p)
// under a single partition-lock acquisition, marking fresh insertions.
// It returns the number of fresh triples.
func (st *Store) addGroup(p rdf.ID, ts []rdf.Triple, idxs []int, fresh []bool) int {
	s := st.stripeFor(p)
	n := 0
	s.mu.RLock()
	part, ok := s.parts[p]
	if ok {
		part.mu.Lock()
		eps := st.active.Load()
		for _, i := range idxs {
			if part.add(ts[i].S, ts[i].O) {
				fresh[i] = true
				n++
				noteAddAll(eps, part, ts[i].S, ts[i].O)
			}
		}
		if n > 0 {
			st.size.Add(int64(n))
			st.version.Add(1)
		}
		due := n > 0 && part.compactionDue()
		part.mu.Unlock()
		s.mu.RUnlock()
		if due {
			st.enqueueCompact(p, part)
		}
		return n
	}
	s.mu.RUnlock()
	s.mu.Lock()
	part, ok = s.parts[p]
	if !ok {
		part = newPartition(st.newestEpoch())
		s.parts[p] = part
		st.registerPred(p)
	}
	part.mu.Lock()
	eps := st.active.Load()
	for _, i := range idxs {
		if part.add(ts[i].S, ts[i].O) {
			fresh[i] = true
			n++
			noteAddAll(eps, part, ts[i].S, ts[i].O)
		}
	}
	if n > 0 {
		st.size.Add(int64(n))
		st.version.Add(1)
	}
	due := n > 0 && part.compactionDue()
	part.mu.Unlock()
	s.mu.Unlock()
	if due {
		st.enqueueCompact(p, part)
	}
	return n
}

// AddAll inserts all triples and returns those that were new, preserving
// input order. It is AddBatch under the store's historical name.
func (st *Store) AddAll(ts []rdf.Triple) []rdf.Triple {
	return st.AddBatch(ts)
}

// Remove deletes a triple and reports whether it was present: overlay
// pairs are deleted, run pairs are tombstoned for the compactor to
// purge. A fully drained partition is pruned (deferred to View.Release
// while a view is active). Remove takes the stripe's write lock
// (excluding concurrent access to the stripe) so pruning an emptied
// partition cannot race an adder.
func (st *Store) Remove(t rdf.Triple) bool {
	s := st.stripeFor(t.P)
	s.mu.Lock()
	p, ok := s.parts[t.P]
	if !ok {
		s.mu.Unlock()
		return false
	}
	p.mu.Lock()
	if !p.remove(t.S, t.O) {
		p.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	st.size.Add(-1)
	st.version.Add(1)
	eps := st.active.Load()
	noteRemoveAll(eps, p, t.S, t.O)
	// A drained partition is pruned — and drained subject entries are
	// compacted — unless a View is active: views may still need the
	// partition's journals, runs and spine (the last Release sweeps
	// instead).
	pruned := false
	if eps == nil {
		if p.n == 0 {
			delete(s.parts, t.P)
			st.unregisterPred(t.P)
			pruned = true
		} else {
			p.maybeCompact()
		}
	}
	due := !pruned && p.compactionDue()
	p.mu.Unlock()
	s.mu.Unlock()
	if due {
		st.enqueueCompact(t.P, p)
	}
	return true
}

// RemoveAll deletes all given triples, returning how many were present.
func (st *Store) RemoveAll(ts []rdf.Triple) int {
	n := 0
	for _, t := range ts {
		if st.Remove(t) {
			n++
		}
	}
	return n
}

// Contains reports whether the exact triple is present.
func (st *Store) Contains(t rdf.Triple) bool {
	s := st.stripeFor(t.P)
	s.mu.RLock()
	p, ok := s.parts[t.P]
	if !ok {
		s.mu.RUnlock()
		return false
	}
	p.mu.RLock()
	found := p.contains(t.S, t.O)
	p.mu.RUnlock()
	s.mu.RUnlock()
	return found
}

// ContainsBatch reports, for each input triple, whether it is present.
// Triples are grouped by predicate so each partition lock is taken once
// per distinct predicate.
func (st *Store) ContainsBatch(ts []rdf.Triple) []bool {
	if len(ts) == 0 {
		return nil
	}
	out := make([]bool, len(ts))
	byPred := make(map[rdf.ID][]int, 8)
	for i, t := range ts {
		byPred[t.P] = append(byPred[t.P], i)
	}
	for p, idxs := range byPred {
		s := st.stripeFor(p)
		s.mu.RLock()
		part, ok := s.parts[p]
		if ok {
			part.mu.RLock()
			for _, i := range idxs {
				out[i] = part.contains(ts[i].S, ts[i].O)
			}
			part.mu.RUnlock()
		}
		s.mu.RUnlock()
	}
	return out
}

// Len returns the number of distinct triples.
func (st *Store) Len() int {
	return int(st.size.Load())
}

// PredicateLen returns the number of triples with the given predicate.
func (st *Store) PredicateLen(p rdf.ID) int {
	s := st.stripeFor(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	part, ok := s.parts[p]
	if !ok {
		return 0
	}
	part.mu.RLock()
	defer part.mu.RUnlock()
	return part.n
}

// PredicateStats returns the live pair count and the distinct subject
// and object counts of predicate p's partition — the per-partition
// cardinalities the query planner's selectivity estimates divide by.
// The object count is an upper bound while the partition has both
// overlay and run pairs (an object present in both is counted twice)
// and while tombstones are pending; the planner only needs the order of
// magnitude, and the bound is exact once compacted.
func (st *Store) PredicateStats(p rdf.ID) (triples, subjects, objects int) {
	s := st.stripeFor(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	part, ok := s.parts[p]
	if !ok {
		return 0, 0, 0
	}
	part.mu.RLock()
	defer part.mu.RUnlock()
	triples = part.n
	subjects = len(part.subjects) - part.drained
	objects = len(part.os)
	for _, r := range part.runs {
		objects += len(r.objsD)
	}
	return triples, subjects, objects
}

// Predicates returns all predicates present, in ascending ID order. The
// registry is maintained sorted at partition create/prune, so this is a
// copy, not a per-call sort.
func (st *Store) Predicates() []rdf.ID {
	st.predMu.RLock()
	out := slices.Clone(st.preds)
	st.predMu.RUnlock()
	return out
}

// Objects returns a copy of the objects o such that (s, p, o) is
// present, in ascending ID order.
func (st *Store) Objects(p, s rdf.ID) []rdf.ID {
	return st.ObjectsAppend(nil, p, s)
}

// ObjectsAppend appends the objects o such that (s, p, o) is present to
// dst and returns the extended slice. The appended segment is in
// ascending ID order — rule joins and the query executor gallop over it.
// Reusing dst across calls lets hot rule joins avoid a fresh allocation
// per probe.
func (st *Store) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	str := st.stripeFor(p)
	str.mu.RLock()
	part, ok := str.parts[p]
	if !ok {
		str.mu.RUnlock()
		return dst
	}
	part.mu.RLock()
	dst = part.objectsAppend(dst, s)
	part.mu.RUnlock()
	str.mu.RUnlock()
	return dst
}

// Subjects returns a copy of the subjects s such that (s, p, o) is
// present, in ascending ID order.
func (st *Store) Subjects(p, o rdf.ID) []rdf.ID {
	return st.SubjectsAppend(nil, p, o)
}

// SubjectsAppend appends the subjects s such that (s, p, o) is present to
// dst and returns the extended slice. The appended segment is in
// ascending ID order.
func (st *Store) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	str := st.stripeFor(p)
	str.mu.RLock()
	part, ok := str.parts[p]
	if !ok {
		str.mu.RUnlock()
		return dst
	}
	part.mu.RLock()
	dst = part.subjectsAppend(dst, o)
	part.mu.RUnlock()
	str.mu.RUnlock()
	return dst
}

// pairBufs recycles the scratch slices ForEachWithPredicate/ForEach copy
// partitions into, so the per-probe copy (the price of running callbacks
// outside the locks) does not also cost an allocation per call.
var pairBufs = sync.Pool{New: func() any { return new([]pair) }}

// pairsOf copies the live (s, o) pairs of predicate p's partition into a
// pooled buffer. Callers must hand the buffer back via putPairs.
func (st *Store) pairsOf(p rdf.ID) *[]pair {
	s := st.stripeFor(p)
	s.mu.RLock()
	part, ok := s.parts[p]
	if !ok {
		s.mu.RUnlock()
		return nil
	}
	buf := pairBufs.Get().(*[]pair)
	part.mu.RLock()
	out := (*buf)[:0]
	part.forEachLive(func(sub, o rdf.ID) {
		out = append(out, pair{s: sub, o: o})
	})
	part.mu.RUnlock()
	s.mu.RUnlock()
	*buf = out
	return buf
}

func putPairs(buf *[]pair) {
	if buf != nil {
		pairBufs.Put(buf)
	}
}

// ForEachWithPredicate calls f for every (s, o) pair in the predicate's
// partition until f returns false. The pairs are copied out under the
// partition lock and f runs outside it, so f sees a consistent snapshot
// of the partition and may freely read or mutate the store (mutations are
// not reflected in the ongoing iteration).
func (st *Store) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	buf := st.pairsOf(p)
	if buf == nil {
		return
	}
	defer putPairs(buf)
	for _, pr := range *buf {
		if !f(pr.s, pr.o) {
			return
		}
	}
}

// ForEach calls f for every triple until f returns false. Like
// ForEachWithPredicate, triples are copied out stripe by stripe and f
// runs outside the locks; concurrent mutations may or may not be
// visited.
func (st *Store) ForEach(f func(rdf.Triple) bool) {
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.RLock()
		preds := make([]rdf.ID, 0, len(s.parts))
		for p := range s.parts {
			preds = append(preds, p)
		}
		s.mu.RUnlock()
		for _, p := range preds {
			buf := st.pairsOf(p)
			if buf == nil {
				continue
			}
			for _, pr := range *buf {
				if !f(rdf.Triple{S: pr.s, P: p, O: pr.o}) {
					putPairs(buf)
					return
				}
			}
			putPairs(buf)
		}
	}
}

// Match returns all triples matching the pattern, where rdf.Any acts as a
// wildcard in any position. The result is a copy.
func (st *Store) Match(pattern rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	collect := func(p rdf.ID, part *partition) {
		switch {
		case pattern.S != rdf.Any && pattern.O != rdf.Any:
			if part.contains(pattern.S, pattern.O) {
				out = append(out, rdf.Triple{S: pattern.S, P: p, O: pattern.O})
			}
		case pattern.S != rdf.Any:
			for _, o := range part.objectsAppend(nil, pattern.S) {
				out = append(out, rdf.Triple{S: pattern.S, P: p, O: o})
			}
		case pattern.O != rdf.Any:
			for _, s := range part.subjectsAppend(nil, pattern.O) {
				out = append(out, rdf.Triple{S: s, P: p, O: pattern.O})
			}
		default:
			part.forEachLive(func(s, o rdf.ID) {
				out = append(out, rdf.Triple{S: s, P: p, O: o})
			})
		}
	}
	if pattern.P != rdf.Any {
		s := st.stripeFor(pattern.P)
		s.mu.RLock()
		if part, ok := s.parts[pattern.P]; ok {
			part.mu.RLock()
			collect(pattern.P, part)
			part.mu.RUnlock()
		}
		s.mu.RUnlock()
		return out
	}
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.RLock()
		for p, part := range s.parts {
			part.mu.RLock()
			collect(p, part)
			part.mu.RUnlock()
		}
		s.mu.RUnlock()
	}
	return out
}

// Snapshot returns a copy of every triple in the store.
func (st *Store) Snapshot() []rdf.Triple {
	out := make([]rdf.Triple, 0, st.size.Load())
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.RLock()
		for p, part := range s.parts {
			part.mu.RLock()
			part.forEachLive(func(sub, o rdf.ID) {
				out = append(out, rdf.Triple{S: sub, P: p, O: o})
			})
			part.mu.RUnlock()
		}
		s.mu.RUnlock()
	}
	return out
}

// Clear removes all triples. It must not be called while a View is
// active: wholesale partition replacement cannot be journaled.
func (st *Store) Clear() {
	if st.active.Load() != nil {
		panic("store: Clear while a View is active")
	}
	st.version.Add(1)
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.Lock()
		removed := 0
		for _, part := range s.parts {
			part.mu.RLock()
			removed += part.n
			part.mu.RUnlock()
		}
		s.parts = make(map[rdf.ID]*partition, 8)
		s.mu.Unlock()
		st.size.Add(int64(-removed))
	}
	st.predMu.Lock()
	st.preds = nil
	st.predMu.Unlock()
}

// CompactionStats counts the background compactor's work since the
// store was created.
type CompactionStats struct {
	// Flushes is the number of overlay→run seals, Merges the number of
	// run merges, Purges the number of tombstone-purging rebuilds.
	Flushes, Merges, Purges int64
	// PairsMerged counts pairs rewritten by merges and purges — the
	// write-amplification meter.
	PairsMerged int64
}

// Stats summarises the store's shape.
type Stats struct {
	Triples    int
	Predicates int
	// MaxPartition is the size of the largest predicate partition.
	MaxPartition int

	// Runs is the total immutable-run count across all partitions;
	// RunPairs, OverlayPairs and Tombstones split the physical pair
	// population (live pairs = RunPairs - Tombstones + OverlayPairs).
	Runs         int
	RunPairs     int
	OverlayPairs int
	Tombstones   int

	Compaction CompactionStats
}

// Stats returns current statistics.
func (st *Store) Stats() Stats {
	s := Stats{Triples: int(st.size.Load())}
	for i := range st.stripes {
		str := &st.stripes[i]
		str.mu.RLock()
		s.Predicates += len(str.parts)
		for _, part := range str.parts {
			part.mu.RLock()
			if part.n > s.MaxPartition {
				s.MaxPartition = part.n
			}
			s.Runs += len(part.runs)
			s.RunPairs += part.rp
			s.OverlayPairs += part.onum
			s.Tombstones += part.tombN
			part.mu.RUnlock()
		}
		str.mu.RUnlock()
	}
	s.Compaction = CompactionStats{
		Flushes:     st.cFlushes.Load(),
		Merges:      st.cMerges.Load(),
		Purges:      st.cPurges.Load(),
		PairsMerged: st.cPairsMerged.Load(),
	}
	return s
}

// View is a consistent point-in-time view of the store, created by
// Freeze. While a view is active, mutators keep running at full speed:
// each partition records post-freeze changes in a small compensation
// journal (one entry per net-changed pair), and the view's iteration
// applies the journal to reconstruct the exact freeze-time contents.
// This is the mechanism behind non-blocking checkpoints: capture is
// O(1), streaming the view contends with writers only for the brief
// per-partition copy that plain iteration already takes — and a fully
// compacted partition (no overlay, no tombstones, no journal) streams
// its immutable runs verbatim, entirely outside the locks.
//
// A view is immutable: Predicates, PredicateLen and the iteration
// methods return the same answers no matter how the store has moved on.
// Compaction (flush/merge/purge) moves pairs physically but never
// changes logical content, so it is transparent to views. Call Release
// when done — it drops the view's journals and, when it was the last
// active view, prunes partitions that drained while frozen. Any number
// of views may be active concurrently (each checkpoint and each read
// session holds its own); every mutation journals one entry per active
// view it affects, so keep the active set small.
type View struct {
	st    *Store
	epoch uint64
	size  int64
}

// Freeze captures a view of the store's current contents. The caller
// must ensure no mutation is in flight during the call itself (mutations
// strictly before or after are fine, and may continue immediately after
// Freeze returns): a mutation racing the freeze lands on an unspecified
// side of the boundary.
func (st *Store) Freeze() *View {
	st.freezeMu.Lock()
	defer st.freezeMu.Unlock()
	st.epochSeq++
	e := st.epochSeq
	eps := make([]uint64, 0, 2)
	if old := st.active.Load(); old != nil {
		eps = append(eps, *old...)
	}
	eps = append(eps, e) // ascending: epochSeq is monotonic
	st.active.Store(&eps)
	return &View{st: st, epoch: e, size: st.size.Load()}
}

// Release ends the view: the store stops journaling for its epoch and
// the epoch's journals are dropped. The release of the last active view
// additionally compacts drained subjects and prunes partitions that
// drained while frozen. Release is idempotent.
func (v *View) Release() {
	st := v.st
	st.freezeMu.Lock()
	defer st.freezeMu.Unlock()
	old := st.active.Load()
	if old == nil {
		return
	}
	eps := make([]uint64, 0, len(*old))
	found := false
	for _, e := range *old {
		if e == v.epoch {
			found = true
			continue
		}
		eps = append(eps, e)
	}
	if !found {
		return
	}
	last := len(eps) == 0
	if last {
		st.active.Store(nil)
	} else {
		st.active.Store(&eps)
	}
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.Lock()
		for id, p := range s.parts {
			p.mu.Lock()
			delete(p.journals, v.epoch)
			empty := false
			if last {
				p.journals = nil
				p.maybeCompact()
				empty = p.n == 0
			}
			p.mu.Unlock()
			if empty {
				delete(s.parts, id)
				st.unregisterPred(id)
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the number of triples in the view.
func (v *View) Len() int { return int(v.size) }

// Predicates returns the predicates present at freeze time, in
// ascending ID order.
func (v *View) Predicates() []rdf.ID {
	// The registry only grows while a view is active (partitions are
	// never pruned mid-view), so filtering it by frozen length yields
	// exactly the freeze-time predicates, already sorted.
	var out []rdf.ID
	for _, p := range v.st.Predicates() {
		if v.PredicateLen(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// PredicateLen returns the number of triples with the given predicate
// at freeze time.
func (v *View) PredicateLen(p rdf.ID) int {
	s := v.st.stripeFor(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	part, ok := s.parts[p]
	if !ok {
		return 0
	}
	part.mu.RLock()
	defer part.mu.RUnlock()
	return part.frozenLen(v.epoch)
}

// PredicateStats returns the freeze-time pair count of predicate p plus
// the partition's current distinct subject/object counts — the same
// planning-grade cardinalities Store.PredicateStats reports (views
// drift from them only by the post-freeze delta, which is negligible
// for join-order estimation).
func (v *View) PredicateStats(p rdf.ID) (triples, subjects, objects int) {
	s := v.st.stripeFor(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	part, ok := s.parts[p]
	if !ok {
		return 0, 0, 0
	}
	part.mu.RLock()
	defer part.mu.RUnlock()
	triples = part.frozenLen(v.epoch)
	subjects = len(part.subjects) - part.drained
	objects = len(part.os)
	for _, r := range part.runs {
		objects += len(r.objsD)
	}
	return triples, subjects, objects
}

// viewChunk is how many pairs a view accumulates per partition-lock
// acquisition. It bounds the pause a concurrent writer can observe
// behind view iteration: with vertical partitioning a single predicate
// (rdf:type, typically) can hold most of the store, so copying a whole
// partition under its lock — what live iteration does — would stall
// writers for O(store) at exactly the moment non-blocking checkpoints
// exist to protect. A subject's object set is evaluated atomically, so
// the true hold bound is O(viewChunk + degree of the chunk's last
// subject) — a pathological hub subject still costs its degree. Frozen
// evaluation probes every run per subject (a binary search each), so the
// per-pair cost is a few times a plain map walk; 1024 keeps the hold
// around a millisecond even on a partition split across several runs.
const viewChunk = 1024

// appendFrozenObjs appends subject s's freeze-time pairs to out: live
// pairs (overlay and untombstoned run pairs) not journaled as
// post-freeze insertions, plus journaled post-freeze removals. The
// journal is keyed on logical pairs, so a pair's physical home —
// overlay before a flush, run after — never matters. Callers hold the
// partition lock.
func (p *partition) appendFrozenObjs(out []pair, s rdf.ID, js map[rdf.ID]bool) []pair {
	if e := p.so[s]; e != nil {
		for o := range e.objs {
			if present, journaled := js[o]; journaled && !present {
				continue // inserted after the freeze
			}
			out = append(out, pair{s: s, o: o})
		}
	}
	if len(p.runs) > 0 {
		ts := p.tomb[s]
		for _, r := range p.runs {
			for _, o := range r.objectsOf(s) {
				if _, dead := ts[o]; dead {
					continue // removed; the journal re-adds it if post-freeze
				}
				if present, journaled := js[o]; journaled && !present {
					continue // flushed post-freeze insertion
				}
				out = append(out, pair{s: s, o: o})
			}
		}
	}
	for o, present := range js {
		if present {
			out = append(out, pair{s: s, o: o}) // removed after the freeze
		}
	}
	return out
}

// ForEachWithPredicate calls f for every freeze-time (s, o) pair of the
// predicate until f returns false. f runs outside the store's locks.
//
// A partition that predates the view and has no journal for it, no
// overlay and no tombstones is frozen-equal to its immutable runs, so
// it streams them verbatim with no further locking: the runs slice is
// replaced wholesale, never mutated in place, and any later logical
// mutation postdates the freeze — it would create exactly the journal
// entry whose absence this path just observed — so it cannot belong to
// the frozen state. This is the checkpoint fast path FlushOverlays sets
// up.
//
// Otherwise iteration walks the partition's insertion-ordered subject
// list, re-acquiring the partition lock after every ~viewChunk pairs.
// That is safe mid-view: partitions are never pruned nor Cleared while
// a view is active, each subject appears in the list exactly once, and
// a subject's freeze-time pairs are a time-invariant property (physical
// moves by the compactor do not change them), so evaluating each
// subject once, whenever its chunk comes up, enumerates exactly the
// frozen state. Subjects appended after the freeze evaluate to nothing.
func (v *View) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	str := v.st.stripeFor(p)
	str.mu.RLock()
	part, ok := str.parts[p]
	str.mu.RUnlock()
	if !ok {
		return
	}
	buf := pairBufs.Get().(*[]pair)
	defer putPairs(buf)
	for i := 0; ; {
		part.mu.RLock()
		if part.born >= v.epoch {
			part.mu.RUnlock()
			return
		}
		j := part.journals[v.epoch] // nil when nothing changed since the freeze
		if i == 0 && j == nil && part.onum == 0 && part.tombN == 0 {
			runs := part.runs
			part.mu.RUnlock()
			for _, r := range runs {
				if !r.forEach(f) {
					return
				}
			}
			return
		}
		out := (*buf)[:0]
		for ; i < len(part.subjects) && len(out) < viewChunk; i++ {
			sub := part.subjects[i]
			out = part.appendFrozenObjs(out, sub, j.sub(sub))
		}
		done := i >= len(part.subjects)
		part.mu.RUnlock()
		*buf = out
		for _, pr := range out {
			if !f(pr.s, pr.o) {
				return
			}
		}
		if done {
			return
		}
	}
}

// ForEach calls f for every freeze-time triple until f returns false,
// grouped by predicate in ascending predicate order. f runs outside the
// store's locks.
func (v *View) ForEach(f func(rdf.Triple) bool) {
	for _, p := range v.Predicates() {
		stop := false
		v.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
			if !f(rdf.Triple{S: s, P: p, O: o}) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// MatchEach streams every live triple matching the pattern (rdf.Any
// wildcards) to f until f returns false, copying matches out under the
// locks so f runs outside them. It is the streaming face of Match and
// the Store half of the query engine's Source interface.
func (st *Store) MatchEach(pattern rdf.Triple, f func(rdf.Triple) bool) {
	for _, t := range st.Match(pattern) {
		if !f(t) {
			return
		}
	}
}

// Contains reports whether the triple was present at freeze time.
func (v *View) Contains(t rdf.Triple) bool {
	s := v.st.stripeFor(t.P)
	s.mu.RLock()
	part, ok := s.parts[t.P]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	part.mu.RLock()
	defer part.mu.RUnlock()
	return v.frozenContains(part, t.S, t.O)
}

// frozenContains answers Contains for one partition. Callers hold the
// partition lock (read side suffices).
func (v *View) frozenContains(part *partition, s, o rdf.ID) bool {
	if part.born >= v.epoch {
		return false
	}
	if js := part.journals[v.epoch].sub(s); js != nil {
		if present, journaled := js[o]; journaled {
			// present records the freeze-time truth for pairs that
			// changed after the freeze.
			return present
		}
	}
	return part.contains(s, o)
}

// MatchEach streams every freeze-time triple matching the pattern
// (rdf.Any wildcards) to f until f returns false. Matches are collected
// under the partition lock — holds are bounded by the matched subject's
// degree (or object's extent) plus the journal — and f runs outside it,
// so queries against the view never block writers for longer than a
// plain probe would. It is the View half of the query engine's Source
// interface.
func (v *View) MatchEach(pattern rdf.Triple, f func(rdf.Triple) bool) {
	if pattern.P != rdf.Any {
		v.matchPredicate(pattern.P, pattern.S, pattern.O, f)
		return
	}
	for _, p := range v.Predicates() {
		stop := false
		v.matchPredicate(p, pattern.S, pattern.O, func(t rdf.Triple) bool {
			if !f(t) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// matchPredicate streams the freeze-time matches within one predicate's
// partition.
func (v *View) matchPredicate(p, s, o rdf.ID, f func(rdf.Triple) bool) {
	switch {
	case s == rdf.Any && o == rdf.Any:
		v.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
			return f(rdf.Triple{S: s, P: p, O: o})
		})
	case s != rdf.Any && o != rdf.Any:
		if v.Contains(rdf.T(s, p, o)) {
			f(rdf.Triple{S: s, P: p, O: o})
		}
	case o == rdf.Any: // s ground: one subject's objects, O(degree) hold
		v.matchSubject(p, s, f)
	default:
		v.matchObject(p, o, f)
	}
}

// matchSubject streams the frozen objects of one subject — the
// ObjectsAppend reconstruction, with f run outside the locks. The lock
// hold is bounded by the subject's degree, as for a live probe.
func (v *View) matchSubject(p, s rdf.ID, f func(rdf.Triple) bool) {
	for _, o := range v.ObjectsAppend(nil, p, s) {
		if !f(rdf.Triple{S: s, P: p, O: o}) {
			return
		}
	}
}

// ObjectsAppend appends the freeze-time objects o with (s, p, o) present
// to dst and returns the extended slice, in ascending ID order — the
// same sorted contract as the live probe, so galloping joins work
// identically against views. The frozen set is live pairs not journaled
// as post-freeze insertions, plus journaled post-freeze removals. The
// lock hold is bounded by the subject's degree, exactly as for a live
// probe — these pattern-indexed view probes are what lets rule joins
// (and the backward support checks of suspect-local retraction) run
// against a frozen view at live-probe cost.
func (v *View) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	str := v.st.stripeFor(p)
	str.mu.RLock()
	part, ok := str.parts[p]
	str.mu.RUnlock()
	if !ok {
		return dst
	}
	part.mu.RLock()
	defer part.mu.RUnlock()
	if part.born >= v.epoch {
		return dst
	}
	js := part.journals[v.epoch].sub(s)
	start := len(dst)
	srcs := 0
	needSort := false
	if e := part.so[s]; e != nil && len(e.objs) > 0 {
		before := len(dst)
		for o := range e.objs {
			if present, journaled := js[o]; journaled && !present {
				continue // inserted after the freeze
			}
			dst = append(dst, o)
		}
		if len(dst) > before {
			srcs++
			needSort = true
		}
	}
	if len(part.runs) > 0 {
		ts := part.tomb[s]
		for _, r := range part.runs {
			ro := r.objectsOf(s)
			if len(ro) == 0 {
				continue
			}
			before := len(dst)
			for _, o := range ro {
				if _, dead := ts[o]; dead {
					continue
				}
				if present, journaled := js[o]; journaled && !present {
					continue
				}
				dst = append(dst, o)
			}
			if len(dst) > before {
				srcs++
			}
		}
	}
	for o, present := range js {
		if present {
			dst = append(dst, o) // removed after the freeze
			needSort = true
		}
	}
	if needSort || srcs > 1 {
		slices.Sort(dst[start:])
	}
	return dst
}

// Objects returns a copy of the freeze-time objects o with (s, p, o)
// present, in ascending ID order.
func (v *View) Objects(p, s rdf.ID) []rdf.ID {
	return v.ObjectsAppend(nil, p, s)
}

// SubjectsAppend appends the freeze-time subjects s with (s, p, o)
// present to dst and returns the extended slice, in ascending ID order.
// The lock hold is bounded by the object's live extent plus the view's
// journal for the partition.
func (v *View) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	str := v.st.stripeFor(p)
	str.mu.RLock()
	part, ok := str.parts[p]
	str.mu.RUnlock()
	if !ok {
		return dst
	}
	part.mu.RLock()
	defer part.mu.RUnlock()
	if part.born >= v.epoch {
		return dst
	}
	j := part.journals[v.epoch]
	start := len(dst)
	srcs := 0
	needSort := false
	if subs := part.os[o]; len(subs) > 0 {
		before := len(dst)
		for s := range subs {
			if present, journaled := j.sub(s)[o]; journaled && !present {
				continue // inserted after the freeze
			}
			dst = append(dst, s)
		}
		if len(dst) > before {
			srcs++
			needSort = true
		}
	}
	for _, r := range part.runs {
		rs := r.subjectsOf(o)
		if len(rs) == 0 {
			continue
		}
		before := len(dst)
		for _, s := range rs {
			if part.tombN > 0 && part.tombHas(s, o) {
				continue
			}
			if present, journaled := j.sub(s)[o]; journaled && !present {
				continue
			}
			dst = append(dst, s)
		}
		if len(dst) > before {
			srcs++
		}
	}
	if j != nil {
		// Journaled post-freeze removals with this object: present at
		// freeze time but no longer live.
		for s, js := range j.m {
			if js[o] {
				dst = append(dst, s)
				needSort = true
			}
		}
	}
	if needSort || srcs > 1 {
		slices.Sort(dst[start:])
	}
	return dst
}

// Subjects returns a copy of the freeze-time subjects s with (s, p, o)
// present, in ascending ID order.
func (v *View) Subjects(p, o rdf.ID) []rdf.ID {
	return v.SubjectsAppend(nil, p, o)
}

// matchObject streams the frozen subjects of one (predicate, object) —
// the SubjectsAppend reconstruction from each run's object→subjects span
// and the overlay's object map, with f run outside the locks. The trade:
// one partition-lock hold of O(object extent + journal), the bound
// Store.Subjects and SubjectsAppend carry, instead of bounded holds over
// every subject of the partition. A selective object costs its answer;
// a hub object costs its whole extent, even for a consumer that stops
// after the first rows.
func (v *View) matchObject(p, o rdf.ID, f func(rdf.Triple) bool) {
	for _, s := range v.SubjectsAppend(nil, p, o) {
		if !f(rdf.Triple{S: s, P: p, O: o}) {
			return
		}
	}
}
