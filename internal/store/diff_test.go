package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// reader is the read surface the differential test compares: a Store
// or a View.
type reader interface {
	Contains(rdf.Triple) bool
	Explicit(rdf.Triple) bool
	ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID
	SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID
	ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool)
	Len() int
	PredicateLen(p rdf.ID) int
}

// The differential schedule's ID domain: small enough that adds,
// removals and re-adds of one pair are frequent.
const diffPreds, diffTerms = 3, 12

// checkReader compares every read of r with the model, reporting the
// first disagreement (nil when they agree). The model maps each live
// triple to whether it is explicit.
func checkReader(r reader, model map[rdf.Triple]bool) error {
	if r.Len() != len(model) {
		return fmt.Errorf("Len = %d, want %d", r.Len(), len(model))
	}
	for p := rdf.ID(1); p <= diffPreds; p++ {
		var want []pair
		objs := map[rdf.ID][]rdf.ID{}
		subs := map[rdf.ID][]rdf.ID{}
		for x := range model {
			if x.P == p {
				want = append(want, pair{s: x.S, o: x.O})
				objs[x.S] = append(objs[x.S], x.O)
				subs[x.O] = append(subs[x.O], x.S)
			}
		}
		sortPairs(want)
		if n := r.PredicateLen(p); n != len(want) {
			return fmt.Errorf("PredicateLen(%d) = %d, want %d", p, n, len(want))
		}
		var got []pair
		r.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
			got = append(got, pair{s: s, o: o})
			return true
		})
		if !slices.Equal(got, want) {
			return fmt.Errorf("ForEachWithPredicate(%d) = %v, want %v in (subject, object) order", p, got, want)
		}
		// ForEachPair is a View read; the live store is read through
		// its current root.
		v, ok := r.(*View)
		if !ok {
			v = r.(*Store).Freeze()
		}
		i := 0
		var bad error
		v.ForEachPair(p, func(s, o rdf.ID, explicit bool) bool {
			if i >= len(want) || (pair{s: s, o: o}) != want[i] || explicit != model[rdf.T(s, p, o)] {
				bad = fmt.Errorf("ForEachPair(%d) yields (%d, %d, explicit %v) at %d", p, s, o, explicit, i)
				return false
			}
			i++
			return true
		})
		if bad == nil && i != len(want) {
			bad = fmt.Errorf("ForEachPair(%d) yields %d pairs, want %d", p, i, len(want))
		}
		if bad != nil {
			return bad
		}
		for k := rdf.ID(1); k <= diffTerms; k++ {
			if got, w := r.ObjectsAppend(nil, p, k), slices.Sorted(slices.Values(objs[k])); !slices.Equal(got, w) {
				return fmt.Errorf("ObjectsAppend(%d, %d) = %v, want %v", p, k, got, w)
			}
			if got, w := r.SubjectsAppend(nil, p, k), slices.Sorted(slices.Values(subs[k])); !slices.Equal(got, w) {
				return fmt.Errorf("SubjectsAppend(%d, %d) = %v, want %v", p, k, got, w)
			}
			for o := rdf.ID(1); o <= diffTerms; o++ {
				x := rdf.T(k, p, o)
				explicit, present := model[x]
				if r.Contains(x) != present {
					return fmt.Errorf("Contains(%v) = %v, want %v", x, !present, present)
				}
				if r.Explicit(x) != explicit {
					return fmt.Errorf("Explicit(%v) = %v, want %v", x, !explicit, explicit)
				}
			}
		}
	}
	return nil
}

// compacted returns what st reads as after Compact, without compacting
// it: a copy of its root with each predicate's run list merged in one
// window, as Compact merges it.
func compacted(st *Store) *View {
	v := *st.root()
	v.lists = slices.Clone(v.lists)
	for i, rl := range v.lists {
		if runs := rl.get(); len(runs) > 1 {
			v.lists[i] = newRunList(mergeRange(nil, runs), rl.n)
		}
	}
	return &v
}

// TestStoreDifferential runs seeded random schedules of Add, AddBatch,
// AssertBatch (which promotes inferred triples), Demote, RemoveAll,
// Freeze/Release, Compact, due-window merges and a Freeze racing a batch
// (which must see all of the batch or none of it), half of them with the
// background compactor merging concurrently, and after every step
// compares Contains, Explicit, ForEachPair, ObjectsAppend,
// SubjectsAppend, ForEachWithPredicate, Len and PredicateLen with a map
// of each live triple to whether it is explicit: on the live store, on
// every open view (against the map as it was when the view froze) and on
// the store's run lists merged as Compact merges them. A failure names
// its (seed, step); the schedule replays from it.
func TestStoreDifferential(t *testing.T) {
	seeds, steps := 24, 160
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runDifferential(t, seed, steps)
	}
}

func runDifferential(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	st := New()
	st.SetAutoCompact(seed%2 == 0)
	model := map[rdf.Triple]bool{} // live triple → explicit
	type frozen struct {
		v     *View
		model map[rdf.Triple]bool
	}
	var views []frozen
	defer func() {
		for _, f := range views {
			f.v.Release()
		}
	}()
	triple := func() rdf.Triple {
		return rdf.T(rdf.ID(1+rng.Intn(diffTerms)), rdf.ID(1+rng.Intn(diffPreds)), rdf.ID(1+rng.Intn(diffTerms)))
	}
	batch := func() []rdf.Triple {
		b := make([]rdf.Triple, 1+rng.Intn(16))
		for i := range b {
			if i > 0 && rng.Intn(4) == 0 {
				b[i] = b[rng.Intn(i)] // an in-batch repeat
			} else {
				b[i] = triple()
			}
		}
		return b
	}
	// write applies one batch to the model and returns what the store
	// must report: the fresh triples of an add or an assert, or the
	// count removed or demoted.
	write := func(b []rdf.Triple, how op) (fresh []rdf.Triple, n int) {
		for _, x := range b {
			explicit, present := model[x]
			switch how {
			case opAdd, opAssert:
				if !present {
					fresh = append(fresh, x)
				}
				model[x] = explicit || how == opAssert
			case opRemove:
				if present {
					delete(model, x)
					n++
				}
			case opDemote:
				if explicit {
					model[x] = false
					n++
				}
			}
		}
		return fresh, n
	}
	do := func(b []rdf.Triple, how op) (fresh []rdf.Triple, n int) {
		switch how {
		case opAdd:
			fresh = st.AddBatch(b)
		case opAssert:
			fresh = st.AssertBatch(b)
		case opRemove:
			n = st.RemoveAll(b)
		case opDemote:
			n = st.Demote(b)
		}
		return fresh, n
	}
	fail := func(step int, what string, err error) {
		t.Helper()
		t.Fatalf("seed %d, step %d: %s: %v", seed, step, what, err)
	}
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(24); {
		case k < 3:
			x := triple()
			_, present := model[x]
			if got := st.Add(x); got == present {
				fail(step, "Add", fmt.Errorf("Add(%v) = %v, want %v", x, got, !got))
			}
			write([]rdf.Triple{x}, opAdd)
		case k < 15:
			how := []op{opAdd, opAdd, opAssert, opAssert, opRemove, opRemove, opDemote}[(k-3)%7]
			b := batch()
			want, wantN := write(b, how)
			got, gotN := do(b, how)
			// Fresh triples come back once each, grouped by predicate:
			// compare as sets.
			sortTriples(got)
			sortTriples(want)
			if !slices.Equal(got, want) || gotN != wantN {
				fail(step, fmt.Sprintf("write %d", how), fmt.Errorf("fresh %v and count %d, want %v and %d", got, gotN, want, wantN))
			}
		case k < 18:
			if len(views) < 3 {
				views = append(views, frozen{st.Freeze(), maps.Clone(model)})
			} else {
				i := rng.Intn(len(views))
				views[i].v.Release()
				views = slices.Delete(views, i, i+1)
			}
		case k < 19:
			st.Compact()
		case k < 22:
			mergeDueWindows(st)
		default:
			b, how := batch(), op(rng.Intn(4))
			before := maps.Clone(model)
			write(b, how)
			done := make(chan struct{})
			go func() {
				defer close(done)
				do(b, how)
			}()
			v := st.Freeze()
			<-done
			if checkReader(v, before) != nil {
				if err := checkReader(v, model); err != nil {
					fail(step, "freeze racing a batch: neither before nor after it", err)
				}
			}
		}
		if err := checkReader(st, model); err != nil {
			fail(step, "live store", err)
		}
		for i, f := range views {
			if err := checkReader(f.v, f.model); err != nil {
				fail(step, fmt.Sprintf("view %d", i), err)
			}
		}
		if err := checkReader(compacted(st), model); err != nil {
			fail(step, "compacted", err)
		}
	}
	st.Compact()
	if err := checkReader(st, model); err != nil {
		fail(steps, "after Compact", err)
	}
	if s := st.Stats(); s.Tombstones != 0 || s.Runs != len(st.Predicates()) {
		fail(steps, "after Compact", fmt.Errorf("%d runs and %d marker pairs over %d predicates", s.Runs, s.Tombstones, len(st.Predicates())))
	}
}

// TestMergeKeepsFlippedPairs pins the merge rule for a pair promoted or
// demoted after the oldest run: its marker and re-add form a window that
// does not start at the predicate's oldest run, and cancelling them
// there would put the older add's bit back in force. A due-window merge
// must keep them as a marker run, then an add run; Compact, whose window
// starts at the oldest run, cancels every marker.
func TestMergeKeepsFlippedPairs(t *testing.T) {
	for _, promote := range []bool{true, false} {
		st := New()
		st.SetAutoCompact(false)
		var base []rdf.Triple
		for i := uint64(1); i <= 64; i++ {
			base = append(base, tr(i, 1, i+1))
		}
		flip := base[7]
		if promote {
			st.AddBatch(base)
			st.AssertBatch([]rdf.Triple{flip})
		} else {
			st.AssertBatch(base)
			st.Demote([]rdf.Triple{flip})
		}
		// Two more one-pair runs make [marker, re-add, a, b] a due window
		// that the 64-pair oldest run is too large to join.
		st.AddBatch([]rdf.Triple{tr(100, 1, 1)})
		st.AddBatch([]rdf.Triple{tr(101, 1, 1)})
		runs := st.root().list(1).get()
		if i, j, ok := mergeWindow(runs); !ok || i != 1 || j != 5 {
			t.Fatalf("promote=%v: due window [%d, %d) (%v) over %d runs, want [1, 5)", promote, i, j, ok, len(runs))
		}
		mergeDueWindows(st)
		if got := st.Explicit(flip); got != promote {
			t.Fatalf("promote=%v: after a due-window merge Explicit(%v) = %v", promote, flip, got)
		}
		if runs := st.root().list(1).get(); len(runs) != 3 || !runs[1].del || runs[2].del {
			t.Fatalf("promote=%v: the merged window is not a marker run, then an add run: %d runs", promote, len(runs))
		}
		st.Compact()
		if got := st.Explicit(flip); got != promote {
			t.Fatalf("promote=%v: after Compact Explicit(%v) = %v", promote, flip, got)
		}
		if got := st.Explicit(base[8]); got == promote {
			t.Fatalf("promote=%v: after Compact an untouched pair reads Explicit %v", promote, got)
		}
		if s := st.Stats(); s.Runs != 1 || s.Tombstones != 0 || s.Triples != 66 {
			t.Fatalf("promote=%v: after Compact %d runs, %d marker pairs, %d triples", promote, s.Runs, s.Tombstones, s.Triples)
		}
	}
}

// TestCompactReachesFrozenViews pins what keeps the heap reading honest:
// a view frozen before Compact, with no write in between, reads only the
// merged runs, so the runs they replaced are not kept alive by it and
// the store is not held twice. A view frozen before a later write keeps
// its own list, and both still read their freeze-time contents.
func TestCompactReachesFrozenViews(t *testing.T) {
	st := New()
	st.SetAutoCompact(false)
	var all []rdf.Triple
	for b := uint64(0); b < 10; b++ {
		var batch []rdf.Triple
		for i := uint64(0); i < 50; i++ {
			batch = append(batch, tr(b*50+i, 1+i%2, i%7))
		}
		st.AddBatch(batch)
		all = append(all, batch...)
	}
	st.RemoveAll(all[:30])
	older := st.Freeze()
	defer older.Release()
	st.Add(tr(9999, 1, 1))
	v := st.Freeze()
	defer v.Release()
	before := map[*run]bool{}
	for _, p := range v.Predicates() {
		for _, r := range v.list(p).get() {
			before[r] = true
		}
	}

	st.Compact()
	for _, p := range v.Predicates() {
		runs := v.list(p).get()
		if len(runs) != 1 || before[runs[0]] || runs[0].del {
			t.Fatalf("predicate %d: the view reads %d runs after Compact, want the one merged add run", p, len(runs))
		}
		if live := st.root().list(p).get(); !slices.Equal(runs, live) {
			t.Fatalf("predicate %d: the view and the store read different runs after Compact", p)
		}
	}
	want := map[rdf.Triple]bool{} // all inferred
	for _, x := range all[30:] {
		want[x] = false
	}
	if err := checkReader(older, want); err != nil {
		t.Fatalf("view frozen before the last write: %v", err)
	}
	want[tr(9999, 1, 1)] = false
	if err := checkReader(v, want); err != nil {
		t.Fatalf("view frozen before Compact: %v", err)
	}
}
