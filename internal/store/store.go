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
// compactor purges tombstones once they dominate. A partition keeps no
// per-subject state beyond that: once a subject's pairs are flushed,
// the runs' sorted key slices are its only record. The split keeps
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

// setAdd inserts v into m[k], allocating the set on first use.
func setAdd(m map[rdf.ID]idSet, k, v rdf.ID) {
	set := m[k]
	if set == nil {
		set = make(idSet, 2)
		m[k] = set
	}
	set[v] = struct{}{}
}

// setDel removes v from m[k] and deletes the set once it is empty, so
// the overlay and tombstone maps never hold an empty set.
func setDel(m map[rdf.ID]idSet, k, v rdf.ID) {
	set := m[k]
	delete(set, v)
	if len(set) == 0 {
		delete(m, k)
	}
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
	// overlay pairs. Both hold overlay pairs only: empty sets are
	// deleted eagerly and a flush replaces both maps.
	so   map[rdf.ID]idSet
	os   map[rdf.ID]idSet
	onum int

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
		so:   make(map[rdf.ID]idSet),
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

// drop deletes the journal entry for (s,o), and s's map once empty, so
// the journal's subjects are exactly those with a net change.
func (j *pjournal) drop(s, o rdf.ID) {
	js := j.m[s]
	delete(js, o)
	if len(js) == 0 {
		delete(j.m, s)
	}
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
			j.drop(s, o)
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
			j.drop(s, o)
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
	_, ok := p.tomb[s][o]
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

// add inserts (s,o) and reports whether it was absent: the overlay,
// then the tombstones, then the runs are checked. A subject newer than
// every run sits above each run's last key, so the run probes of fresh
// ingest cost O(1) each. Callers hold the partition lock (write side).
func (p *partition) add(s, o rdf.ID) bool {
	if _, dup := p.so[s][o]; dup {
		return false
	}
	if p.tombN > 0 && p.tombHas(s, o) {
		// Resurrect a tombstoned run pair in place: dropping the
		// tombstone makes the run's copy live again, preserving the
		// one-physical-home invariant without touching the overlay.
		setDel(p.tomb, s, o)
		p.tombN--
	} else if p.runsContain(s, o) {
		return false
	} else {
		setAdd(p.so, s, o)
		setAdd(p.os, o, s)
		p.onum++
	}
	p.n++
	if invariantsEnabled {
		p.assertAccounting()
		p.assertOverlayShape(s, o)
		p.assertLive(s, o)
	}
	return true
}

// remove deletes (s,o) and reports whether it was present: overlay pairs
// are deleted outright, run pairs are tombstoned. Callers hold the
// partition lock (write side).
func (p *partition) remove(s, o rdf.ID) bool {
	if _, ok := p.so[s][o]; ok {
		setDel(p.so, s, o)
		setDel(p.os, o, s)
		p.onum--
	} else if p.tombHas(s, o) || !p.runsContain(s, o) {
		return false
	} else {
		if p.tomb == nil {
			p.tomb = make(map[rdf.ID]idSet, 4)
		}
		setAdd(p.tomb, s, o)
		p.tombN++
	}
	p.n--
	if invariantsEnabled {
		p.assertAccounting()
		p.assertOverlayShape(s, o)
		p.assertDead(s, o)
	}
	return true
}

// contains reports whether (s,o) is live: an overlay map probe, then —
// unless tombstoned — a binary-search probe of the runs. Callers hold
// the partition lock (read side suffices).
func (p *partition) contains(s, o rdf.ID) bool {
	if _, ok := p.so[s][o]; ok {
		return true
	}
	if p.tombN > 0 && p.tombHas(s, o) {
		return false
	}
	return p.runsContain(s, o)
}

// forEachLive calls f for every live (s,o) pair: run pairs minus
// tombstones, then the overlay. Callers hold the partition lock.
func (p *partition) forEachLive(f func(s, o rdf.ID)) {
	p.forEachLiveInRuns(f)
	for s, objs := range p.so {
		for o := range objs {
			f(s, o)
		}
	}
}

// forEachLiveInRuns calls f for every run pair that is not tombstoned,
// run by run in (subject, object) order. Callers hold the partition
// lock.
func (p *partition) forEachLiveInRuns(f func(s, o rdf.ID)) {
	for _, r := range p.runs {
		r.forEach(func(s, o rdf.ID) bool {
			if p.tombN == 0 || !p.tombHas(s, o) {
				f(s, o)
			}
			return true
		})
	}
}

// objectsAppend appends subject s's objects to dst in ascending order:
// the live objects (overlay and untombstoned run pairs) minus those js
// journals as post-freeze insertions, plus those it journals as
// post-freeze removals. With js nil that is the live extent; with a
// view's journal entry for s it is the freeze-time extent. The journal
// is keyed on logical pairs, so a pair's physical home — overlay before
// a flush, run after — never matters. Each run span is already sorted,
// so the common compacted case (one contributing span) is a straight
// copy and skips the sort. cur, when non-nil, holds one key index per
// run for a caller visiting subjects in ascending order (see
// run.objectsFrom); nil means a binary search per run. Callers hold the
// partition lock (read side suffices).
func (p *partition) objectsAppend(dst []rdf.ID, s rdf.ID, js map[rdf.ID]bool, cur []int) []rdf.ID {
	start := len(dst)
	for o := range p.so[s] {
		if present, journaled := js[o]; journaled && !present {
			continue // inserted after the freeze
		}
		dst = append(dst, o)
	}
	ts := p.tomb[s]
	for i, r := range p.runs {
		var ro []rdf.ID
		if cur == nil {
			ro = r.objectsOf(s)
		} else {
			ro = r.objectsFrom(&cur[i], s)
		}
		if len(ts) == 0 && len(js) == 0 {
			dst = append(dst, ro...)
			continue
		}
		for _, o := range ro {
			if _, dead := ts[o]; dead {
				continue // removed; the journal re-adds it if post-freeze
			}
			if present, journaled := js[o]; journaled && !present {
				continue // flushed post-freeze insertion
			}
			dst = append(dst, o)
		}
	}
	for o, present := range js {
		if present {
			dst = append(dst, o) // removed after the freeze
		}
	}
	if !slices.IsSorted(dst[start:]) {
		slices.Sort(dst[start:])
	}
	return dst
}

// subjectsAppend appends object o's subjects to dst in ascending order —
// the object-direction mirror of objectsAppend, compensated by a view's
// whole journal j for the partition (nil for the live extent). Callers
// hold the partition lock (read side suffices).
func (p *partition) subjectsAppend(dst []rdf.ID, o rdf.ID, j *pjournal) []rdf.ID {
	start := len(dst)
	for s := range p.os[o] {
		if present, journaled := j.sub(s)[o]; journaled && !present {
			continue // inserted after the freeze
		}
		dst = append(dst, s)
	}
	for _, r := range p.runs {
		rs := r.subjectsOf(o)
		if p.tombN == 0 && j == nil {
			dst = append(dst, rs...)
			continue
		}
		for _, s := range rs {
			if p.tombN > 0 && p.tombHas(s, o) {
				continue
			}
			if present, journaled := j.sub(s)[o]; journaled && !present {
				continue
			}
			dst = append(dst, s)
		}
	}
	if j != nil {
		// Journaled post-freeze removals with this object: present at
		// freeze time but no longer live.
		for s, js := range j.m {
			if js[o] {
				dst = append(dst, s)
			}
		}
	}
	if !slices.IsSorted(dst[start:]) {
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
	// A drained partition is pruned unless a View is active: views may
	// still need the partition's journals and runs (the last Release
	// sweeps instead).
	pruned := false
	if eps == nil && p.n == 0 {
		delete(s.parts, t.P)
		st.unregisterPred(t.P)
		pruned = true
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

// PredicateStats returns the live pair count of predicate p's partition
// and upper bounds on its distinct subject and object counts — the
// per-partition cardinalities the query planner's selectivity estimates
// divide by (see partition.keyCounts).
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
	subjects, objects = part.keyCounts()
	return part.n, subjects, objects
}

// keyCounts returns upper bounds on the partition's distinct subject
// and object counts: the overlay's keys plus every run's distinct keys.
// A key present in several runs or in a run and the overlay is counted
// once per home, and tombstoned pairs still count; the planner only
// needs the order of magnitude, and the bound is exact once compacted.
// Callers hold the partition lock (read side suffices).
func (p *partition) keyCounts() (subjects, objects int) {
	subjects, objects = len(p.so), len(p.os)
	for _, r := range p.runs {
		subjects += r.bySub.nkeys
		objects += r.byObj.nkeys
	}
	return subjects, objects
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
	dst = part.objectsAppend(dst, s, nil, nil)
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
	dst = part.subjectsAppend(dst, o, nil)
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
			for _, o := range part.objectsAppend(nil, pattern.S, nil, nil) {
				out = append(out, rdf.Triple{S: pattern.S, P: p, O: o})
			}
		case pattern.O != rdf.Any:
			for _, s := range part.subjectsAppend(nil, pattern.O, nil) {
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
// O(1), and streaming the view walks each partition by ascending subject
// ID, one bounded chunk per lock hold (see viewChunk), while a fully
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
// additionally prunes partitions that drained while frozen. Release is
// idempotent.
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
// upper bounds on the partition's current distinct subject/object
// counts — the same planning-grade cardinalities Store.PredicateStats
// reports (views drift from them only by the post-freeze delta, which is
// negligible for join-order estimation).
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
	subjects, objects = part.keyCounts()
	return part.frozenLen(v.epoch), subjects, objects
}

// viewChunk is how many pairs a view walk accumulates per partition-lock
// acquisition. It bounds the pause a concurrent writer can observe
// behind view iteration: with vertical partitioning a single predicate
// (rdf:type, typically) can hold most of the store, so copying a whole
// partition under its lock — what live iteration does — would stall
// writers for O(store) at exactly the moment non-blocking checkpoints
// exist to protect. A chunk evaluates the subjects of up to
// max(viewChunk, (overlay + journal subjects)/scanPerPair) keys per run,
// and scans the overlay and the view's journal once, so a hold is that
// many frozen evaluations plus one pass over two maps — bounded like a
// flush, since the compactor caps the overlay at flushMax — plus the
// degree of the chunk's last subject: a pathological hub subject still
// costs its degree. Frozen evaluation visits every run per subject, so
// the per-pair cost is a few times a plain map walk; 1024 keeps the
// hold around a millisecond even on a partition split across several
// runs.
const viewChunk = 1024

// scanPerPair caps how many overlay and journal entries a view-walk
// chunk may scan per pair it can evaluate. A scanned map entry costs
// about a quarter of a frozen evaluation, so at 4 a chunk's scan costs
// no more than its evaluations, and a walk's total scanning stays linear
// in the partition size. Right after a bulk load a checkpoint's journal
// can hold tens of thousands of subjects; a larger ratio makes each of
// many chunks pay for scanning it, a smaller one lengthens each hold.
const scanPerPair = 4

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
// Otherwise iteration walks the partition's subjects in ascending ID
// order, one chunk per partition-lock acquisition, resuming past the
// last subject evaluated. A chunk takes up to lim keys of each run past
// the cursor (lim is viewChunk, or more when the overlay and journal are
// large, see scanPerPair); the lowest last key a truncated run
// contributed is where the chunk must stop, since keys above it may be
// missing from that run's contribution. It adds every overlay subject
// and every subject journaled for this view between the cursor and that
// stop, and evaluates the sorted union until lim pairs are collected. A
// pair-form run repeats a key per value, so its lim keys may end inside
// a key's span: the stop key's whole span is still evaluated, and the
// union drops the repeats.
// That is safe mid-view: partitions are never pruned nor Cleared while a
// view is active, a subject's freeze-time pairs are a time-invariant
// property (physical moves by the compactor do not change them), and
// every subject holding one is, at any instant, an overlay, run or
// journal key. So evaluating each subject once, whenever its chunk comes
// up, enumerates exactly the frozen state. The overlay is re-read per
// chunk, not captured at walk start: a frozen run pair removed, purged
// and re-added after the walk began lives only in the overlay, its
// journal entry netted to zero.
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
	var keys, merged, objs []rdf.ID
	var cur []int // per run, the scan position in its keys (run.objectsFrom)
	// next is the cursor: every subject below it has been evaluated.
	for next := rdf.ID(0); ; {
		part.mu.RLock()
		if part.born >= v.epoch {
			part.mu.RUnlock()
			return
		}
		j := part.journals[v.epoch] // nil when nothing changed since the freeze
		if next == 0 && j == nil && part.onum == 0 && part.tombN == 0 {
			runs := part.runs
			part.mu.RUnlock()
			for _, r := range runs {
				if !r.forEach(f) {
					return
				}
			}
			return
		}
		var jm map[rdf.ID]map[rdf.ID]bool
		if j != nil {
			jm = j.m
		}
		// lim grows with the overlay and journal every chunk scans.
		lim := max(viewChunk, (len(part.so)+len(jm))/scanPerPair)
		// The chunk may not pass the lowest last key a truncated run
		// contributes: keys above it may be missing from that run's share.
		// A run is truncated only below its own last key, so stop+1
		// cannot wrap.
		var stop rdf.ID
		truncated := false
		cur = cur[:0]
		for _, r := range part.runs {
			rk := r.bySub.keys
			i, _ := slices.BinarySearch(rk, next)
			cur = append(cur, i)
			if i+lim < len(rk) && rk[i+lim-1] < rk[len(rk)-1] && (!truncated || rk[i+lim-1] < stop) {
				stop, truncated = rk[i+lim-1], true
			}
		}
		keys = keys[:0]
		addInChunk := func(s rdf.ID) {
			if s >= next && (!truncated || s <= stop) {
				keys = append(keys, s)
			}
		}
		for s := range part.so {
			addInChunk(s)
		}
		for s := range jm {
			addInChunk(s)
		}
		slices.Sort(keys)
		for ri, r := range part.runs { // run keys are sorted: merge, don't sort
			rk := r.bySub.keys
			end := len(rk)
			if truncated {
				end, _ = slices.BinarySearch(rk, stop+1)
			}
			merged = appendMergedSorted(merged[:0], keys, rk[cur[ri]:end])
			keys, merged = merged, keys
		}
		keys = slices.Compact(keys)
		out := (*buf)[:0]
		k := 0
		for ; k < len(keys) && len(out) < lim; k++ {
			sub := keys[k]
			objs = part.objectsAppend(objs[:0], sub, j.sub(sub), cur)
			for _, o := range objs {
				out = append(out, pair{s: sub, o: o})
			}
		}
		// A chunk whose last key is the maximum ID is the final one, so
		// next cannot wrap.
		done := k == len(keys) && !truncated
		if k > 0 {
			next = keys[k-1] + 1
		}
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
	return part.objectsAppend(dst, s, part.journals[v.epoch].sub(s), nil)
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
	return part.subjectsAppend(dst, o, part.journals[v.epoch])
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
