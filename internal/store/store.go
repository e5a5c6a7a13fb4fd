// Package store implements Slider's in-memory triple store.
//
// The store follows the vertical partitioning approach of Abadi et al.
// (PVLDB 2007) as adopted by the paper's §2.2: triples are indexed first
// by predicate, then by subject, then by object — and symmetrically by
// predicate, object, subject — which is the near-optimal layout for the
// access patterns of RDFS/OWL rule bodies (walk a predicate's extent, or
// probe by (predicate, subject) / (predicate, object)).
//
// A partition is a list of immutable sorted runs (see runs.go), oldest
// first, in the sorted-array style of Inferray. Every batch is a run:
// AddBatch groups a batch by predicate, sorts each group once, drops
// in-batch repeats and pairs already live, and appends the fresh pairs
// as an add run; Remove and RemoveAll append the removed pairs as a
// delete-marker run. A pair's occurrences therefore alternate add,
// marker, add, … from oldest to newest, and it is live when its newest
// occurrence is an add. A background compactor merges adjacent runs in
// size tiers (see compact.go), cancelling a pair against its marker, so
// a partition holds O(log n) runs and tiny trickle runs are absorbed by
// the first tier. Probes binary search each run; ObjectsAppend and
// SubjectsAppend append ascending results into a caller-owned buffer
// (the contract the query executor's galloping intersection relies on).
//
// A partition's current contents are one runList: its runs and its live
// pair count. A write installs a new runList; a merge, which changes no
// logical content, swaps the runs of the runList in place. Readers load
// the runList and read it without locks, so Store and View reads are one
// implementation over a run list: Freeze captures each partition's
// runList, and views frozen since a partition's last write share it with
// the partition, merged runs included.
//
// Concurrency uses two levels of lock striping: the predicate→partition
// map is sharded across numStripes stripes (selected by a hash of the
// predicate ID), each guarded by its own RWMutex, and each partition
// carries a mutex serializing its writers. Adders hold the stripe's read
// lock while they append; Remove holds its write lock, so pruning a
// drained partition cannot race an adder holding a stale *partition.
// Merges serialize on Store.workMu and run off the partition lock.
// Iteration callbacks run over the captured immutable runs, so they may
// freely read — or even mutate — the store.
//
// The cross-package lock order (workMu before stripe before partition
// locks, with predMu and the compaction-queue mutex as leaves) is
// catalogued in INVARIANTS.md and enforced by cmd/slidervet's lockorder
// checker.
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

// partition holds all triples sharing one predicate: the current
// runList, replaced by every write under mu. Readers load cur without
// locking.
type partition struct {
	mu  sync.Mutex // serializes writers: appends and merge swaps
	cur atomic.Pointer[runList]

	// queued dedups background-compactor enqueues for this partition.
	queued atomic.Bool
}

// runList is a partition's contents at one point in time: its runs,
// oldest first, and its live pair count n. n never changes; runs changes
// only when a merge swaps in an equivalent list (the slice is replaced
// wholesale, never patched), so a reader's loaded slice stays valid.
type runList struct {
	runs atomic.Pointer[[]*run]
	n    int
}

func newRunList(runs []*run, n int) *runList {
	rl := &runList{n: n}
	rl.runs.Store(&runs)
	return rl
}

// get returns the list's runs; nil for a nil list (no partition).
func (rl *runList) get() []*run {
	if rl == nil {
		return nil
	}
	return *rl.runs.Load()
}

// len returns the list's live pair count; 0 for a nil list.
func (rl *runList) len() int {
	if rl == nil {
		return 0
	}
	return rl.n
}

func newPartition() *partition {
	p := &partition{}
	p.cur.Store(newRunList(nil, 0))
	return p
}

// live reports whether (s,o) is live in runs: its newest occurrence is
// in an add run.
func live(runs []*run, s, o rdf.ID) bool {
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].contains(s, o) {
			return !runs[i].del
		}
	}
	return false
}

// objectsAppend appends subject s's live objects in runs to dst in
// ascending order. A subject in one run (the compacted case) is a
// straight copy of its span.
func objectsAppend(runs []*run, dst []rdf.ID, s rdf.ID) []rdf.ID {
	start, spans := len(dst), 0
	for _, r := range runs {
		if span := r.objectsOf(s); len(span) > 0 {
			dst = append(dst, span...)
			spans++
		}
	}
	return settle(dst, start, spans)
}

// subjectsAppend appends object o's live subjects in runs to dst in
// ascending order — the object-direction mirror of objectsAppend.
func subjectsAppend(runs []*run, dst []rdf.ID, o rdf.ID) []rdf.ID {
	start, spans := len(dst), 0
	for _, r := range runs {
		if span := r.subjectsOf(o); len(span) > 0 {
			dst = append(dst, span...)
			spans++
		}
	}
	return settle(dst, start, spans)
}

// settle sorts the values appended at dst[start:] from more than one
// span and keeps those that occur an odd number of times: a pair's
// occurrences alternate add and marker, so an odd count means its newest
// is an add.
func settle(dst []rdf.ID, start, spans int) []rdf.ID {
	if spans < 2 {
		return dst
	}
	vs := dst[start:]
	slices.Sort(vs)
	w := 0
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		if (j-i)%2 == 1 {
			vs[w] = vs[i]
			w++
		}
		i = j
	}
	return dst[:start+w]
}

// forEachLive calls f for every live pair in runs in (subject, object)
// order until f returns false, reporting whether it ran to completion.
// A single run streams verbatim; several are merged subject by subject,
// each subject's objects settled as objectsAppend settles them.
func forEachLive(runs []*run, f func(s, o rdf.ID) bool) bool {
	if len(runs) == 1 {
		return runs[0].forEach(f)
	}
	type cursor struct {
		d *direction
		i int // where the next key starts in d.keys
	}
	cur := make([]cursor, 0, len(runs))
	for _, r := range runs {
		if len(r.bySub.keys) > 0 {
			cur = append(cur, cursor{d: &r.bySub})
		}
	}
	var objs []rdf.ID
	for len(cur) > 0 {
		s := cur[0].d.keys[cur[0].i]
		for _, c := range cur[1:] {
			s = min(s, c.d.keys[c.i])
		}
		objs = objs[:0]
		spans := 0
		for ci := 0; ci < len(cur); ci++ {
			c := &cur[ci]
			if c.d.keys[c.i] != s {
				continue
			}
			var span []rdf.ID
			span, c.i = c.d.spanAt(c.i)
			objs = append(objs, span...)
			spans++
			if c.i == len(c.d.keys) {
				cur = slices.Delete(cur, ci, ci+1)
				ci--
			}
		}
		for _, o := range settle(objs, 0, spans) {
			if !f(s, o) {
				return false
			}
		}
	}
	return true
}

// keyCounts returns upper bounds on the distinct subject and object
// counts of runs: every add run's distinct keys. A key present in
// several runs is counted once per run, and removed pairs still count;
// the planner only needs the order of magnitude, and the bound is exact
// once compacted.
func keyCounts(runs []*run) (subjects, objects int) {
	for _, r := range runs {
		if !r.del {
			subjects += r.bySub.nkeys
			objects += r.byObj.nkeys
		}
	}
	return subjects, objects
}

// group is one predicate's share of a batch: its pair keys, ascending
// and without repeats.
type group struct {
	p    rdf.ID
	keys []uint64
}

// groupByPredicate splits ts by predicate, in first-seen predicate
// order, sorting and deduplicating each group's pair keys.
func groupByPredicate(ts []rdf.Triple) (groups []group) {
	all := make([]uint64, len(ts))
	if !slices.ContainsFunc(ts, func(t rdf.Triple) bool { return t.P != ts[0].P }) {
		for i, t := range ts {
			all[i] = pairKey(t.S, t.O)
		}
		groups = []group{{p: ts[0].P, keys: all}}
	} else {
		at := make(map[rdf.ID]int32, 8) // predicate → group
		gi := make([]int32, len(ts))
		var counts []int
		for i, t := range ts {
			g, ok := at[t.P]
			if !ok {
				g = int32(len(groups))
				at[t.P] = g
				groups = append(groups, group{p: t.P})
				counts = append(counts, 0)
			}
			gi[i] = g
			counts[g]++
		}
		off := 0
		for g := range groups {
			groups[g].keys = all[off : off : off+counts[g]]
			off += counts[g]
		}
		for i, t := range ts {
			g := &groups[gi[i]]
			g.keys = append(g.keys, pairKey(t.S, t.O))
		}
	}
	for g := range groups {
		slices.Sort(groups[g].keys)
		groups[g].keys = slices.Compact(groups[g].keys)
	}
	return groups
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

	// predMu guards preds, the sorted registry of predicates with a
	// partition. Maintained incrementally at partition create/prune so
	// Predicates() is a copy, not a collect-and-sort per call.
	predMu sync.RWMutex
	preds  []rdf.ID

	// Background compaction state (see compact.go). autoCompact gates
	// the background worker; workMu serializes all merges; the c*
	// atomics are the compaction counters surfaced by Stats.
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

	cMerges, cPurges, cPairsMerged atomic.Int64

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

// list returns predicate p's current runList (nil when absent).
func (st *Store) list(p rdf.ID) *runList {
	s := st.stripeFor(p)
	s.mu.RLock()
	part := s.parts[p]
	s.mu.RUnlock()
	if part == nil {
		return nil
	}
	return part.cur.Load()
}

// appendRun installs a runList of runs plus r holding n live pairs.
// Callers hold the partition lock.
func (p *partition) appendRun(runs []*run, r *run, n int) []*run {
	next := make([]*run, len(runs)+1)
	copy(next, runs)
	next[len(runs)] = r
	p.cur.Store(newRunList(next, n))
	if invariantsEnabled {
		checkRunList(next, n, r)
	}
	return next
}

// Add inserts a triple and reports whether it was new: a one-pair
// batch, which the first merge tier absorbs.
func (st *Store) Add(t rdf.Triple) bool {
	return len(st.addGroup(t.P, []uint64{pairKey(t.S, t.O)})) == 1
}

// AddBatch inserts all triples and returns those that were new, once
// each, grouped by predicate in first-seen order and in (subject,
// object) order within a predicate. Each predicate's share of the batch
// becomes one add run, taking the partition lock once.
func (st *Store) AddBatch(ts []rdf.Triple) []rdf.Triple {
	if len(ts) == 0 {
		return nil
	}
	groups := groupByPredicate(ts)
	n := 0
	for g := range groups {
		groups[g].keys = st.addGroup(groups[g].p, groups[g].keys)
		n += len(groups[g].keys)
	}
	if n == 0 {
		return nil
	}
	out := make([]rdf.Triple, 0, n)
	for _, g := range groups {
		for _, k := range g.keys {
			s, o := unpack(k)
			out = append(out, rdf.Triple{S: s, P: g.p, O: o})
		}
	}
	return out
}

// addGroup appends the pair keys of ks (ascending, no repeats, sharing
// predicate p) that are not live as one add run and returns them; ks's
// backing array is reused.
func (st *Store) addGroup(p rdf.ID, ks []uint64) []uint64 {
	s := st.stripeFor(p)
	var part *partition
	for {
		s.mu.RLock()
		if part = s.parts[p]; part == nil {
			s.mu.RUnlock()
			s.mu.Lock()
			if s.parts[p] == nil {
				s.parts[p] = newPartition()
				st.registerPred(p)
			}
			s.mu.Unlock()
			continue
		}
		part.mu.Lock()
		if len(part.cur.Load().get()) < maxRuns {
			break
		}
		part.mu.Unlock()
		s.mu.RUnlock()
		st.mergeDown(part)
	}
	rl := part.cur.Load()
	runs := rl.get()
	fresh := ks[:0]
	for _, k := range ks {
		if sub, obj := unpack(k); !live(runs, sub, obj) {
			fresh = append(fresh, k)
		}
	}
	due := false
	if n := len(fresh); n > 0 {
		runs = part.appendRun(runs, buildRun(fresh, false), rl.n+n)
		// size is updated before the locks are released so it can never
		// lag behind a Clear that sums partition counts under the locks.
		st.size.Add(int64(n))
		st.version.Add(1)
		due = mergeDue(runs)
	}
	part.mu.Unlock()
	s.mu.RUnlock()
	if due {
		st.enqueueCompact(p, part)
	}
	return fresh
}

// Remove deletes a triple and reports whether it was present.
func (st *Store) Remove(t rdf.Triple) bool {
	return st.removeGroup(t.P, []uint64{pairKey(t.S, t.O)}) == 1
}

// RemoveAll deletes all given triples, returning how many were present.
// Each predicate's share becomes one delete-marker run.
func (st *Store) RemoveAll(ts []rdf.Triple) int {
	if len(ts) == 0 {
		return 0
	}
	n := 0
	groups := groupByPredicate(ts)
	for _, g := range groups {
		n += st.removeGroup(g.p, g.keys)
	}
	return n
}

// removeGroup appends the live pair keys of ks (ascending, no repeats,
// sharing predicate p) as one marker run and returns how many there
// were. A partition drained by it is pruned instead; views keep the
// runList they captured. removeGroup takes the stripe's write lock, so
// the prune cannot race an adder.
func (st *Store) removeGroup(p rdf.ID, ks []uint64) int {
	s := st.stripeFor(p)
	var part *partition
	for {
		s.mu.Lock()
		if part = s.parts[p]; part == nil {
			s.mu.Unlock()
			return 0
		}
		part.mu.Lock()
		if len(part.cur.Load().get()) < maxRuns {
			break
		}
		part.mu.Unlock()
		s.mu.Unlock()
		st.mergeDown(part)
	}
	rl := part.cur.Load()
	runs := rl.get()
	dead := ks[:0]
	for _, k := range ks {
		if sub, obj := unpack(k); live(runs, sub, obj) {
			dead = append(dead, k)
		}
	}
	n := len(dead)
	due := false
	switch {
	case n == 0:
	case n == rl.n:
		part.cur.Store(newRunList(nil, 0))
		delete(s.parts, p)
		st.unregisterPred(p)
	default:
		runs = part.appendRun(runs, buildRun(dead, true), rl.n-n)
		due = mergeDue(runs)
	}
	if n > 0 {
		st.size.Add(int64(-n))
		st.version.Add(1)
	}
	part.mu.Unlock()
	s.mu.Unlock()
	if due {
		st.enqueueCompact(p, part)
	}
	return n
}

// Contains reports whether the exact triple is present.
func (st *Store) Contains(t rdf.Triple) bool {
	return live(st.list(t.P).get(), t.S, t.O)
}

// ContainsBatch reports, for each input triple, whether it is present.
func (st *Store) ContainsBatch(ts []rdf.Triple) []bool {
	if len(ts) == 0 {
		return nil
	}
	out := make([]bool, len(ts))
	var p rdf.ID
	var runs []*run
	for i, t := range ts {
		if i == 0 || t.P != p {
			p, runs = t.P, st.list(t.P).get()
		}
		out[i] = live(runs, t.S, t.O)
	}
	return out
}

// Len returns the number of distinct triples.
func (st *Store) Len() int {
	return int(st.size.Load())
}

// PredicateLen returns the number of triples with the given predicate.
func (st *Store) PredicateLen(p rdf.ID) int { return st.list(p).len() }

// PredicateStats returns the live pair count of predicate p's partition
// and upper bounds on its distinct subject and object counts — the
// per-partition cardinalities the query planner's selectivity estimates
// divide by (see keyCounts).
func (st *Store) PredicateStats(p rdf.ID) (triples, subjects, objects int) {
	return predicateStats(st.list(p))
}

func predicateStats(rl *runList) (triples, subjects, objects int) {
	subjects, objects = keyCounts(rl.get())
	return rl.len(), subjects, objects
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

// ObjectsAppend appends the objects o such that (s, p, o) is present to
// dst and returns the extended slice. The appended segment is in
// ascending ID order — rule joins and the query executor gallop over it.
// Reusing dst across calls lets hot rule joins avoid a fresh allocation
// per probe.
func (st *Store) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	return objectsAppend(st.list(p).get(), dst, s)
}

// SubjectsAppend appends the subjects s such that (s, p, o) is present to
// dst and returns the extended slice. The appended segment is in
// ascending ID order.
func (st *Store) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	return subjectsAppend(st.list(p).get(), dst, o)
}

// ForEachWithPredicate calls f for every (s, o) pair in the predicate's
// partition until f returns false. f walks the partition's runs as they
// were when the call began, so it sees a consistent snapshot of the
// partition and may freely read or mutate the store (mutations are not
// reflected in the ongoing iteration).
func (st *Store) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	forEachLive(st.list(p).get(), f)
}

// ForEach calls f for every triple until f returns false, grouped by
// predicate in ascending predicate order; each predicate's pairs are
// the partition's as its walk began.
func (st *Store) ForEach(f func(rdf.Triple) bool) { forEachTriple(st, f) }

// Match returns all triples matching the pattern, where rdf.Any acts as a
// wildcard in any position. The result is a copy.
func (st *Store) Match(pattern rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	st.MatchEach(pattern, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// MatchEach streams every live triple matching the pattern (rdf.Any
// wildcards) to f until f returns false. It is the streaming face of
// Match and the Store half of the query engine's Source interface.
func (st *Store) MatchEach(pattern rdf.Triple, f func(rdf.Triple) bool) {
	matchEach(st, pattern, f)
}

// Snapshot returns a copy of every triple in the store.
func (st *Store) Snapshot() []rdf.Triple {
	out := make([]rdf.Triple, 0, st.size.Load())
	st.ForEach(func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Clear removes all triples. Open views keep their contents.
func (st *Store) Clear() {
	st.version.Add(1)
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.Lock()
		removed := 0
		for _, part := range s.parts {
			part.mu.Lock()
			removed += part.cur.Load().n
			part.mu.Unlock()
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
	// Merges is the number of run merges, Purges the number of them
	// that took delete markers in.
	Merges, Purges int64
	// PairsMerged counts pairs read by merges — the write-amplification
	// meter.
	PairsMerged int64
}

// Stats summarises the store's shape.
type Stats struct {
	Triples    int
	Predicates int
	// MaxPartition is the size of the largest predicate partition.
	MaxPartition int

	// Runs is the total run count across all partitions, add and
	// delete-marker runs alike. RunPairs counts the pairs of add runs
	// and Tombstones those of marker runs: each marker cancels one older
	// add, so live pairs = RunPairs - Tombstones. OverlayPairs counts
	// the pairs in runs not yet merged into their partition's oldest.
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
			rl := part.cur.Load()
			s.MaxPartition = max(s.MaxPartition, rl.n)
			runs := rl.get()
			s.Runs += len(runs)
			for k, r := range runs {
				if r.del {
					s.Tombstones += r.pairs
				} else {
					s.RunPairs += r.pairs
				}
				if k > 0 {
					s.OverlayPairs += r.pairs
				}
			}
		}
		str.mu.RUnlock()
	}
	s.Compaction = CompactionStats{
		Merges:      st.cMerges.Load(),
		Purges:      st.cPurges.Load(),
		PairsMerged: st.cPairsMerged.Load(),
	}
	return s
}

// View is a consistent point-in-time view of the store, created by
// Freeze: each partition's runList as it was at the freeze. Runs are
// immutable and a write installs a new runList, so a view answers from
// its freeze-time contents without locks while writers keep running;
// a merge swaps the runs of the runList it rewrote, so views frozen
// since a partition's last write read the merged runs and the runs they
// replaced can be collected. Any number of views may be open.
type View struct {
	parts map[rdf.ID]*runList
	preds []rdf.ID
	size  int
}

// Freeze captures a view of the store's current contents, O(partitions).
// The caller must ensure no mutation is in flight during the call itself
// (mutations strictly before or after are fine, and may continue
// immediately after Freeze returns): a mutation racing the freeze lands
// on an unspecified side of the boundary.
func (st *Store) Freeze() *View {
	v := &View{parts: make(map[rdf.ID]*runList)}
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.RLock()
		for p, part := range s.parts {
			if rl := part.cur.Load(); rl.n > 0 {
				v.parts[p] = rl
				v.preds = append(v.preds, p)
				v.size += rl.n
			}
		}
		s.mu.RUnlock()
	}
	slices.Sort(v.preds)
	return v
}

// Release ends the view. A view holds no lock and no writer waits on
// it; its runs are collected once the view is unreachable. Release is
// idempotent.
func (v *View) Release() {}

func (v *View) list(p rdf.ID) *runList { return v.parts[p] }

// Len returns the number of triples in the view.
func (v *View) Len() int { return v.size }

// Predicates returns the predicates present at freeze time, in
// ascending ID order.
func (v *View) Predicates() []rdf.ID { return slices.Clone(v.preds) }

// PredicateLen returns the number of triples with the given predicate
// at freeze time.
func (v *View) PredicateLen(p rdf.ID) int { return v.list(p).len() }

// PredicateStats returns the freeze-time pair count of predicate p plus
// upper bounds on its distinct subject/object counts — the same
// planning-grade cardinalities Store.PredicateStats reports.
func (v *View) PredicateStats(p rdf.ID) (triples, subjects, objects int) {
	return predicateStats(v.list(p))
}

// ForEachWithPredicate calls f for every freeze-time (s, o) pair of the
// predicate until f returns false.
func (v *View) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	forEachLive(v.list(p).get(), f)
}

// ForEach calls f for every freeze-time triple until f returns false,
// grouped by predicate in ascending predicate order.
func (v *View) ForEach(f func(rdf.Triple) bool) { forEachTriple(v, f) }

// Contains reports whether the triple was present at freeze time.
func (v *View) Contains(t rdf.Triple) bool {
	return live(v.list(t.P).get(), t.S, t.O)
}

// MatchEach streams every freeze-time triple matching the pattern
// (rdf.Any wildcards) to f until f returns false. It is the View half of
// the query engine's Source interface.
func (v *View) MatchEach(pattern rdf.Triple, f func(rdf.Triple) bool) {
	matchEach(v, pattern, f)
}

// ObjectsAppend appends the freeze-time objects o with (s, p, o) present
// to dst and returns the extended slice, in ascending ID order — the
// same sorted contract and cost as the live probe, so rule joins (and
// the backward support checks of suspect-local retraction) run against
// a frozen view at live-probe cost.
func (v *View) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	return objectsAppend(v.list(p).get(), dst, s)
}

// SubjectsAppend appends the freeze-time subjects s with (s, p, o)
// present to dst and returns the extended slice, in ascending ID order.
func (v *View) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	return subjectsAppend(v.list(p).get(), dst, o)
}

// lister is what the shared read paths need of a Store or a View.
type lister interface {
	list(p rdf.ID) *runList
	Predicates() []rdf.ID
}

// forEachTriple streams every triple of src, predicate by predicate.
func forEachTriple(src lister, f func(rdf.Triple) bool) {
	for _, p := range src.Predicates() {
		if !forEachLive(src.list(p).get(), func(s, o rdf.ID) bool {
			return f(rdf.Triple{S: s, P: p, O: o})
		}) {
			return
		}
	}
}

// matchEach streams the triples of src matching the pattern.
func matchEach(src lister, pattern rdf.Triple, f func(rdf.Triple) bool) {
	if pattern.P == rdf.Any {
		for _, p := range src.Predicates() {
			if !matchPredicate(src.list(p).get(), p, pattern.S, pattern.O, f) {
				return
			}
		}
		return
	}
	matchPredicate(src.list(pattern.P).get(), pattern.P, pattern.S, pattern.O, f)
}

// matchPredicate streams the matches within one predicate's runs,
// reporting whether f accepted them all.
func matchPredicate(runs []*run, p, s, o rdf.ID, f func(rdf.Triple) bool) bool {
	switch {
	case s != rdf.Any && o != rdf.Any:
		return !live(runs, s, o) || f(rdf.Triple{S: s, P: p, O: o})
	case s != rdf.Any:
		for _, o := range objectsAppend(runs, nil, s) {
			if !f(rdf.Triple{S: s, P: p, O: o}) {
				return false
			}
		}
	case o != rdf.Any:
		for _, s := range subjectsAppend(runs, nil, o) {
			if !f(rdf.Triple{S: s, P: p, O: o}) {
				return false
			}
		}
	default:
		return forEachLive(runs, func(s, o rdf.ID) bool {
			return f(rdf.Triple{S: s, P: p, O: o})
		})
	}
	return true
}
