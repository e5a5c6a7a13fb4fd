// Package store implements Slider's in-memory triple store.
//
// The store follows the vertical partitioning approach of Abadi et al.
// (PVLDB 2007) as adopted by the paper's §2.2: triples are indexed first
// by predicate, then by subject, then by object — and symmetrically by
// predicate, object, subject — which is the near-optimal layout for the
// access patterns of RDFS/OWL rule bodies (walk a predicate's extent, or
// probe by (predicate, subject) / (predicate, object)).
//
// A predicate's pairs are a list of immutable sorted runs (see runs.go),
// oldest first, in the sorted-array style of Inferray. Every batch is a
// run: AddBatch groups a batch by predicate, sorts each group once,
// drops in-batch repeats and pairs already live, and appends the fresh
// pairs as an add run; Remove and RemoveAll append the removed pairs as
// a delete-marker run. A pair's occurrences therefore alternate add,
// marker, add, … from oldest to newest, and it is live when its newest
// occurrence is an add. A background compactor merges adjacent runs in
// size tiers (see compact.go), cancelling a pair against its marker, so
// a predicate holds O(log n) runs and tiny trickle runs are absorbed by
// the first tier. Probes binary search each run; ObjectsAppend and
// SubjectsAppend append ascending results into a caller-owned buffer
// (the contract the query executor's galloping intersection relies on).
//
// The store also knows which triples were asserted rather than inferred,
// which is all delete-and-rederive needs: each add run carries one bit
// per pair, and a live pair is explicit when the bit of its newest add is
// set. AssertBatch adds with the bit set, and promotes a live inferred
// pair as a marker plus a re-add with the bit; Demote re-adds a live
// explicit pair without it. So a flip keeps the add/marker alternation,
// and a merge keeps a flipped pair's marker and re-add unless its window
// starts at the oldest run.
//
// The whole store is one immutable root (a View): the sorted table of
// predicates with their runLists, the live triple count and the version.
// The Store holds an atomic pointer to the current root. A write groups
// and sorts its batch, drops what it would not change and builds its
// runs outside any lock, against the root it loaded; under Store.mu it
// redoes that only for a predicate another writer changed meanwhile,
// and publishes one new root, so a batch becomes visible whole.
// Predicates it did not touch keep their runList, and a predicate it
// drained is left out. A merge, which changes no logical
// content, swaps the runs of a runList in place. Freeze is one atomic
// load, and every Store read is the same read of the current root, so
// views frozen since a predicate's last write share its runList, merged
// runs included. Iteration callbacks run over the captured immutable
// runs, so they may freely read — or even mutate — the store.
//
// The cross-package lock order (workMu before Store.mu, with the
// compaction-queue mutex as a leaf) is catalogued in INVARIANTS.md and
// enforced by cmd/slidervet's lockorder checker.
package store

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
)

// runList is one predicate's contents at one point in time: its runs,
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

// get returns the list's runs; nil for a nil list (no pairs).
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

// live reports whether (s,o) is live in runs: its newest occurrence is
// in an add run.
func live(runs []*run, s, o rdf.ID) bool {
	isLive, _ := stateIn(runs, s, o)
	return isLive
}

// stateIn reports whether (s,o) is live in runs, and whether it is
// explicit: its newest occurrence is in an add run, with its bit set.
func stateIn(runs []*run, s, o rdf.ID) (isLive, explicit bool) {
	for i := len(runs) - 1; i >= 0; i-- {
		if pos, ok := runs[i].bySub.find(s, o); ok {
			return !runs[i].del, runs[i].expl.has(pos)
		}
	}
	return false, false
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
// order until f returns false, reporting whether it ran to completion: a
// single run streams verbatim, several are walked by forEachPair.
func forEachLive(runs []*run, f func(s, o rdf.ID) bool) bool {
	if len(runs) == 1 {
		return runs[0].forEach(f)
	}
	return forEachPair(runs, func(s, o rdf.ID, _ bool) bool { return f(s, o) })
}

// forEachPair calls f for every live pair in runs in (subject, object)
// order, with its explicit bit, until f returns false, reporting whether
// it ran to completion. The runs are merged subject by subject: a subject
// in one run streams its span with the run's bits, and one in several has
// its objects settled as objectsAppend settles them, each taking the bit
// of its newest add.
func forEachPair(runs []*run, f func(s, o rdf.ID, explicit bool) bool) bool {
	type cursor struct {
		r *run
		i int // where the next key starts in r.bySub.keys
	}
	cur := make([]cursor, 0, len(runs))
	for _, r := range runs {
		if len(r.bySub.keys) > 0 {
			cur = append(cur, cursor{r: r})
		}
	}
	var spans [][]rdf.ID
	var from []cursor // each span's run, and where it starts in r.bySub.vals
	var objs []rdf.ID
	for len(cur) > 0 {
		s := cur[0].r.bySub.keys[cur[0].i]
		for _, c := range cur[1:] {
			s = min(s, c.r.bySub.keys[c.i])
		}
		spans, from = spans[:0], from[:0]
		for ci := 0; ci < len(cur); ci++ {
			c := &cur[ci]
			d := &c.r.bySub
			if d.keys[c.i] != s {
				continue
			}
			from = append(from, cursor{r: c.r, i: d.start(c.i)})
			var span []rdf.ID
			span, c.i = d.spanAt(c.i)
			spans = append(spans, span)
			if c.i == len(d.keys) {
				cur = slices.Delete(cur, ci, ci+1)
				ci--
			}
		}
		if len(spans) == 1 { // an add: a marker's subject is in its add's run too
			for j, o := range spans[0] {
				if !f(s, o, from[0].r.expl.has(from[0].i+j)) {
					return false
				}
			}
			continue
		}
		objs = objs[:0]
		for _, span := range spans {
			objs = append(objs, span...)
		}
		for _, o := range settle(objs, 0, len(spans)) {
			explicit := false
			for k := len(from) - 1; k >= 0; k-- {
				if j, ok := slices.BinarySearch(spans[k], o); ok {
					explicit = from[k].r.expl.has(from[k].i + j)
					break
				}
			}
			if !f(s, o, explicit) {
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

// Store is a concurrent, duplicate-free, vertically partitioned triple
// store. The zero value is not usable; call New.
type Store struct {
	// cur is the current root. Every write that changes content
	// publishes a new one under mu, which also serializes the merges'
	// run-list swaps; readers only load cur.
	cur atomic.Pointer[View]
	mu  sync.Mutex

	// Background compaction state (see compact.go). autoCompact gates
	// the background worker; workMu serializes all merges; the c*
	// atomics are the compaction counters surfaced by Stats.
	autoCompact atomic.Bool
	comp        struct {
		mu       sync.Mutex
		queue    []rdf.ID // predicates due a merge, each at most once
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
	st.cur.Store(&View{})
	st.autoCompact.Store(true)
	return st
}

// root returns the current root.
func (st *Store) root() *View { return st.cur.Load() }

// Version returns the store's mutation counter. It advances on every
// call that changed content, so two equal readings mean the store's
// contents are unchanged between them.
func (st *Store) Version() uint64 { return st.root().version }

// op is what a write does to each pair of its batch.
type op uint8

const (
	opAdd    op = iota // add the pairs not live, inferred
	opAssert           // add the pairs not live, explicit; promote the live inferred ones
	opRemove           // remove the live pairs
	opDemote           // demote the live explicit pairs to inferred
)

// Add inserts a triple as inferred and reports whether it was new: a
// one-pair batch, which the first merge tier absorbs.
func (st *Store) Add(t rdf.Triple) bool {
	return st.apply([]group{{p: t.P, keys: []uint64{pairKey(t.S, t.O)}}}, opAdd) == 1
}

// AddBatch inserts all triples as inferred and returns those that were
// new, once each, grouped by predicate in first-seen order and in
// (subject, object) order within a predicate. Each predicate's share of
// the batch becomes one add run, and the batch becomes visible whole.
func (st *Store) AddBatch(ts []rdf.Triple) []rdf.Triple { return st.insert(ts, opAdd) }

// AssertBatch inserts all triples as explicit and returns those that
// were new, as AddBatch does. A triple already live as inferred is
// promoted in the same publication — a marker run, then an add run with
// its bit set — and is not returned; one already explicit is left alone.
func (st *Store) AssertBatch(ts []rdf.Triple) []rdf.Triple { return st.insert(ts, opAssert) }

// insert is AddBatch and AssertBatch.
func (st *Store) insert(ts []rdf.Triple, how op) []rdf.Triple {
	if len(ts) == 0 {
		return nil
	}
	groups := groupByPredicate(ts)
	n := st.apply(groups, how)
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

// Remove deletes a triple and reports whether it was present.
func (st *Store) Remove(t rdf.Triple) bool {
	return st.apply([]group{{p: t.P, keys: []uint64{pairKey(t.S, t.O)}}}, opRemove) == 1
}

// RemoveAll deletes all given triples, returning how many were present.
// Each predicate's share becomes one delete-marker run, and the batch
// becomes visible whole.
func (st *Store) RemoveAll(ts []rdf.Triple) int {
	if len(ts) == 0 {
		return 0
	}
	return st.apply(groupByPredicate(ts), opRemove)
}

// Demote turns every given triple that is live and explicit into an
// inferred one, which stays live — a marker run, then an add run without
// the bit — and returns how many it demoted.
func (st *Store) Demote(ts []rdf.Triple) int {
	if len(ts) == 0 {
		return 0
	}
	return st.apply(groupByPredicate(ts), opDemote)
}

// change is one group's share of a write, staged against from, the
// runList of predicate p it read: the group's keys whose liveness the
// write changes (those not live for an add, those live for a removal),
// those live pairs whose explicit bit it flips, the runs they become and
// the live pair count left. rl, p's next runList, is set at publication;
// it stays nil when the write drains p.
type change struct {
	p       rdf.ID
	from    *runList
	kept    []uint64
	flipped []uint64
	runs    []*run
	left    int
	rl      *runList
}

// changed reports whether the change alters p at all.
func (c *change) changed() bool { return len(c.kept)+len(c.flipped) > 0 }

// stageChange stages keys (ascending, no repeats, sharing predicate p)
// against from. A removal's kept keys become one marker run, an add's
// one add run. A flip re-adds a live pair with the other bit behind a
// marker: an assert's promoted keys form a marker run and join its kept
// keys in one add run with every bit set; a demotion's form a marker run
// and an add run with none.
func stageChange(p rdf.ID, from *runList, keys []uint64, how op) change {
	runs := from.get()
	c := change{p: p, from: from}
	for i, k := range keys {
		s, o := unpack(k)
		isLive, explicit := stateIn(runs, s, o)
		switch {
		case how == opRemove && isLive, (how == opAdd || how == opAssert) && !isLive:
			if c.kept == nil {
				c.kept = make([]uint64, 0, len(keys)-i)
			}
			c.kept = append(c.kept, k)
		case how == opAssert && isLive && !explicit, how == opDemote && explicit:
			c.flipped = append(c.flipped, k)
		}
	}
	c.left = from.len() + len(c.kept)
	if how == opRemove {
		c.left = from.len() - len(c.kept)
	}
	if !c.changed() || c.left == 0 {
		return c
	}
	if len(c.flipped) > 0 {
		c.runs = append(c.runs, buildRun(c.flipped, true, nil))
	}
	switch how {
	case opAdd:
		c.runs = append(c.runs, buildRun(c.kept, false, nil))
	case opRemove:
		c.runs = append(c.runs, buildRun(c.kept, true, nil))
	case opDemote:
		c.runs = append(c.runs, buildRun(c.flipped, false, nil))
	case opAssert:
		adds := c.kept
		if len(c.flipped) > 0 {
			adds = slices.Concat(c.kept, c.flipped)
			slices.Sort(adds)
		}
		expl := newBitmap(len(adds))
		for i := range adds {
			expl.set(i)
		}
		c.runs = append(c.runs, buildRun(adds, false, expl))
	}
	return c
}

// apply publishes one batch's groups, written as how says, as one new
// root and returns how many pairs it added, removed or (for a demotion)
// demoted, leaving each group's keys filtered to those it added or
// removed. Each group is staged against the current root outside mu:
// its pairs are found and built into runs there. Under mu a group is
// published as staged when its predicate's runList is still the one it
// read, and staged again otherwise; its runs are appended to that
// runList's runs as they are then, so a merge swapped in meanwhile is
// kept. A predicate the write would take past maxRuns runs is merged
// down first, outside mu, since workMu ranks outside it: one at maxRuns
// for an add or a removal, which appends one run, and one within a run of
// it for a flip, which may append two.
func (st *Store) apply(groups []group, how op) int {
	limit := maxRuns
	if how == opAssert || how == opDemote {
		limit = maxRuns - 1
	}
	full := func(rl *runList) bool { return len(rl.get()) >= limit }
	var base *View
	for {
		base = st.root()
		i := slices.IndexFunc(groups, func(g group) bool { return full(base.list(g.p)) })
		if i < 0 {
			break
		}
		st.mergeDown(groups[i].p)
	}
	changes := make([]change, len(groups))
	for g, gr := range groups {
		changes[g] = stageChange(gr.p, base.list(gr.p), gr.keys, how)
	}
	var cur *View
	for {
		st.mu.Lock()
		cur = st.root()
		merge := -1
		for g := range changes {
			c := &changes[g]
			if rl := cur.list(c.p); rl != c.from {
				if full(rl) {
					merge = g
					break
				}
				*c = stageChange(c.p, rl, groups[g].keys, how)
			}
		}
		if merge < 0 {
			break
		}
		st.mu.Unlock()
		st.mergeDown(changes[merge].p)
	}
	n, flipped := 0, 0
	var due []rdf.ID
	for g := range changes {
		c := &changes[g]
		groups[g].keys = c.kept
		n += len(c.kept)
		flipped += len(c.flipped)
		if len(c.runs) == 0 {
			continue
		}
		next := slices.Concat(c.from.get(), c.runs)
		if invariantsEnabled {
			checkRunList(next, c.left, c.runs...)
		}
		c.rl = newRunList(next, c.left)
		if mergeDue(next) {
			due = append(due, c.p)
		}
	}
	if n+flipped > 0 {
		delta := n
		if how == opRemove {
			delta = -n
		}
		st.cur.Store(cur.next(changes, delta))
	}
	st.mu.Unlock()
	for _, p := range due {
		st.enqueueCompact(p)
	}
	if how == opDemote {
		return flipped
	}
	return n
}

// next returns the root that follows v once changes are applied and the
// live count has moved by delta: a changed predicate takes its new
// runList, a drained one is left out, a new one is inserted in order,
// and a change that kept no key changes nothing. The predicate table is
// shared with v unless its predicates change.
func (v *View) next(changes []change, delta int) *View {
	nv := &View{preds: v.preds, lists: slices.Clone(v.lists), size: v.size + delta, version: v.version + 1}
	shared := true
	for _, c := range changes {
		if !c.changed() {
			continue
		}
		i, ok := slices.BinarySearch(nv.preds, c.p)
		if ok && c.rl != nil {
			nv.lists[i] = c.rl
			continue
		}
		if shared {
			nv.preds, shared = slices.Clone(nv.preds), false
		}
		if ok {
			nv.preds, nv.lists = slices.Delete(nv.preds, i, i+1), slices.Delete(nv.lists, i, i+1)
		} else {
			nv.preds, nv.lists = slices.Insert(nv.preds, i, c.p), slices.Insert(nv.lists, i, c.rl)
		}
	}
	return nv
}

// Freeze returns a view of the store's current contents: the current
// root, one atomic load. Every batch is published whole, so a view holds
// each batch entirely or not at all.
func (st *Store) Freeze() *View { return st.root() }

// Contains reports whether the exact triple is present.
func (st *Store) Contains(t rdf.Triple) bool { return st.root().Contains(t) }

// Explicit reports whether the triple is present as an explicit one (see
// View.Explicit).
func (st *Store) Explicit(t rdf.Triple) bool { return st.root().Explicit(t) }

// ContainsBatch reports, for each input triple, whether it is present.
// All answers come from one root.
func (st *Store) ContainsBatch(ts []rdf.Triple) []bool {
	if len(ts) == 0 {
		return nil
	}
	v := st.root()
	out := make([]bool, len(ts))
	var p rdf.ID
	var runs []*run
	for i, t := range ts {
		if i == 0 || t.P != p {
			p, runs = t.P, v.list(t.P).get()
		}
		out[i] = live(runs, t.S, t.O)
	}
	return out
}

// Len returns the number of distinct triples.
func (st *Store) Len() int { return st.root().Len() }

// PredicateLen returns the number of triples with the given predicate.
func (st *Store) PredicateLen(p rdf.ID) int { return st.root().PredicateLen(p) }

// PredicateStats returns the live pair count of predicate p and upper
// bounds on its distinct subject and object counts — the per-predicate
// cardinalities the query planner's selectivity estimates divide by (see
// keyCounts).
func (st *Store) PredicateStats(p rdf.ID) (triples, subjects, objects int) {
	return st.root().PredicateStats(p)
}

// Predicates returns all predicates present, in ascending ID order.
func (st *Store) Predicates() []rdf.ID { return st.root().Predicates() }

// ObjectsAppend appends the objects o such that (s, p, o) is present to
// dst and returns the extended slice. The appended segment is in
// ascending ID order — rule joins and the query executor gallop over it.
// Reusing dst across calls lets hot rule joins avoid a fresh allocation
// per probe.
func (st *Store) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	return st.root().ObjectsAppend(dst, p, s)
}

// SubjectsAppend appends the subjects s such that (s, p, o) is present to
// dst and returns the extended slice. The appended segment is in
// ascending ID order.
func (st *Store) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	return st.root().SubjectsAppend(dst, p, o)
}

// ForEachWithPredicate calls f for every (s, o) pair of the predicate
// until f returns false. f walks the pairs as they were when the call
// began, so it may freely read or mutate the store (mutations are not
// reflected in the ongoing iteration).
func (st *Store) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	st.root().ForEachWithPredicate(p, f)
}

// ForEach calls f for every triple, as the store was when the call
// began, until f returns false, grouped by predicate in ascending
// predicate order.
func (st *Store) ForEach(f func(rdf.Triple) bool) { st.root().ForEach(f) }

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
	st.root().MatchEach(pattern, f)
}

// Snapshot returns a copy of every triple in the store.
func (st *Store) Snapshot() []rdf.Triple {
	v := st.root()
	out := make([]rdf.Triple, 0, v.size)
	v.ForEach(func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
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
	// MaxPartition is the pair count of the largest predicate.
	MaxPartition int

	// Runs is the total run count across all predicates, add and
	// delete-marker runs alike. RunPairs counts the pairs of add runs
	// and Tombstones those of marker runs: each marker cancels one older
	// add, so live pairs = RunPairs - Tombstones. OverlayPairs counts
	// the pairs in runs not yet merged into their predicate's oldest.
	Runs         int
	RunPairs     int
	OverlayPairs int
	Tombstones   int

	Compaction CompactionStats
}

// Stats returns current statistics, read from one root.
func (st *Store) Stats() Stats {
	v := st.root()
	s := Stats{Triples: v.size, Predicates: len(v.preds)}
	for _, rl := range v.lists {
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
	s.Compaction = CompactionStats{
		Merges:      st.cMerges.Load(),
		Purges:      st.cPurges.Load(),
		PairsMerged: st.cPairsMerged.Load(),
	}
	return s
}

// View is the store's whole contents at one point in time — a root: the
// sorted table of predicates with their runLists, the live triple count
// and the store version. A published root never changes, except that a
// merge swaps the runs of a runList for an equivalent list; so a view
// answers from its contents without locks while writers keep publishing,
// and views frozen since a predicate's last write read its merged runs
// (the runs they replaced can be collected). Any number of views may be
// open.
type View struct {
	preds   []rdf.ID   // ascending
	lists   []*runList // lists[i] holds preds[i]'s pairs; never empty
	size    int
	version uint64
}

// Release ends the view. A view holds no lock and no writer waits on
// it; its runs are collected once the view is unreachable. Release is
// idempotent.
func (v *View) Release() {}

// list returns predicate p's runList; nil when p has no pairs.
func (v *View) list(p rdf.ID) *runList {
	if i, ok := slices.BinarySearch(v.preds, p); ok {
		return v.lists[i]
	}
	return nil
}

// Version returns the store version the view holds: the store's Version
// when it was frozen.
func (v *View) Version() uint64 { return v.version }

// Len returns the number of triples in the view.
func (v *View) Len() int { return v.size }

// Predicates returns the view's predicates in ascending ID order.
func (v *View) Predicates() []rdf.ID { return slices.Clone(v.preds) }

// PredicateLen returns the number of triples with the given predicate.
func (v *View) PredicateLen(p rdf.ID) int { return v.list(p).len() }

// PredicateStats returns the pair count of predicate p plus upper bounds
// on its distinct subject and object counts (see keyCounts).
func (v *View) PredicateStats(p rdf.ID) (triples, subjects, objects int) {
	rl := v.list(p)
	subjects, objects = keyCounts(rl.get())
	return rl.len(), subjects, objects
}

// ForEachWithPredicate calls f for every (s, o) pair of the predicate, in
// (subject, object) order, until f returns false.
func (v *View) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	forEachLive(v.list(p).get(), f)
}

// ForEach calls f for every triple until f returns false, grouped by
// predicate in ascending predicate order.
func (v *View) ForEach(f func(rdf.Triple) bool) {
	for i, p := range v.preds {
		if !forEachLive(v.lists[i].get(), func(s, o rdf.ID) bool {
			return f(rdf.Triple{S: s, P: p, O: o})
		}) {
			return
		}
	}
}

// Contains reports whether the triple is present in the view.
func (v *View) Contains(t rdf.Triple) bool {
	return live(v.list(t.P).get(), t.S, t.O)
}

// Explicit reports whether the triple is present in the view as an
// explicit one: asserted with AssertBatch, and neither removed nor
// demoted since.
func (v *View) Explicit(t rdf.Triple) bool {
	_, explicit := stateIn(v.list(t.P).get(), t.S, t.O)
	return explicit
}

// ForEachPair calls f for every (s, o) pair of the predicate, in
// (subject, object) order, with whether the pair is explicit, until f
// returns false.
func (v *View) ForEachPair(p rdf.ID, f func(s, o rdf.ID, explicit bool) bool) {
	forEachPair(v.list(p).get(), f)
}

// MatchEach streams every triple of the view matching the pattern
// (rdf.Any wildcards) to f until f returns false — the query engine's
// Source read for a pattern.
func (v *View) MatchEach(pattern rdf.Triple, f func(rdf.Triple) bool) {
	if pattern.P != rdf.Any {
		matchPredicate(v.list(pattern.P).get(), pattern.P, pattern.S, pattern.O, f)
		return
	}
	for i, p := range v.preds {
		if !matchPredicate(v.lists[i].get(), p, pattern.S, pattern.O, f) {
			return
		}
	}
}

// ObjectsAppend appends the objects o with (s, p, o) present to dst and
// returns the extended slice, in ascending ID order — so rule joins (and
// the backward support checks of suspect-local retraction) run against a
// frozen view at live-probe cost.
func (v *View) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	return objectsAppend(v.list(p).get(), dst, s)
}

// SubjectsAppend appends the subjects s with (s, p, o) present to dst
// and returns the extended slice, in ascending ID order.
func (v *View) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	return subjectsAppend(v.list(p).get(), dst, o)
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
