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
	ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID
	SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID
	ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool)
	Len() int
	PredicateLen(p rdf.ID) int
}

// The differential schedule's ID domain: small enough that adds,
// removals and re-adds of one pair are frequent.
const diffPreds, diffTerms = 3, 12

// checkReader compares every read of r with the model set, reporting
// the first disagreement (nil when they agree).
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
		for k := rdf.ID(1); k <= diffTerms; k++ {
			if got, w := r.ObjectsAppend(nil, p, k), slices.Sorted(slices.Values(objs[k])); !slices.Equal(got, w) {
				return fmt.Errorf("ObjectsAppend(%d, %d) = %v, want %v", p, k, got, w)
			}
			if got, w := r.SubjectsAppend(nil, p, k), slices.Sorted(slices.Values(subs[k])); !slices.Equal(got, w) {
				return fmt.Errorf("SubjectsAppend(%d, %d) = %v, want %v", p, k, got, w)
			}
			for o := rdf.ID(1); o <= diffTerms; o++ {
				x := rdf.T(k, p, o)
				if r.Contains(x) != model[x] {
					return fmt.Errorf("Contains(%v) = %v, want %v", x, !model[x], model[x])
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
			v.lists[i] = newRunList(mergeRange(runs), rl.n)
		}
	}
	return &v
}

// TestStoreDifferential runs seeded random schedules of Add, AddBatch,
// RemoveAll, Freeze/Release, Compact, due-window merges and a Freeze
// racing a batch (which must see all of the batch or none of it), half
// of them with the background compactor merging concurrently, and after
// every step compares Contains, ObjectsAppend, SubjectsAppend,
// ForEachWithPredicate, Len and PredicateLen with a plain map: on the
// live store, on every open view (against the map as it was when the
// view froze) and on the store's run lists merged as Compact merges
// them. A failure names its (seed, step); the schedule replays from it.
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
	model := map[rdf.Triple]bool{}
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
	fail := func(step int, what string, err error) {
		t.Helper()
		t.Fatalf("seed %d, step %d: %s: %v", seed, step, what, err)
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(21); {
		case op < 4:
			x := triple()
			if got := st.Add(x); got == model[x] {
				fail(step, "Add", fmt.Errorf("Add(%v) = %v, want %v", x, got, !got))
			}
			model[x] = true
		case op < 10:
			b := batch()
			var want []rdf.Triple
			for _, x := range b {
				if !model[x] {
					model[x] = true
					want = append(want, x)
				}
			}
			// Fresh triples come back once each, grouped by predicate:
			// compare as sets.
			got := st.AddBatch(b)
			sortTriples(got)
			sortTriples(want)
			if !slices.Equal(got, want) {
				fail(step, "AddBatch", fmt.Errorf("fresh %v, want %v", got, want))
			}
		case op < 15:
			b := batch()
			want := 0
			for _, x := range b {
				if model[x] {
					delete(model, x)
					want++
				}
			}
			if got := st.RemoveAll(b); got != want {
				fail(step, "RemoveAll", fmt.Errorf("removed %d, want %d", got, want))
			}
		case op < 17:
			if len(views) < 3 {
				views = append(views, frozen{st.Freeze(), maps.Clone(model)})
			} else {
				i := rng.Intn(len(views))
				views[i].v.Release()
				views = slices.Delete(views, i, i+1)
			}
		case op < 18:
			st.Compact()
		case op < 20:
			mergeDueWindows(st)
		default:
			b, del := batch(), rng.Intn(2) == 0
			before := maps.Clone(model)
			for _, x := range b {
				if del {
					delete(model, x)
				} else {
					model[x] = true
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if del {
					st.RemoveAll(b)
				} else {
					st.AddBatch(b)
				}
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
	want := map[rdf.Triple]bool{}
	for _, x := range all[30:] {
		want[x] = true
	}
	if err := checkReader(older, want); err != nil {
		t.Fatalf("view frozen before the last write: %v", err)
	}
	want[tr(9999, 1, 1)] = true
	if err := checkReader(v, want); err != nil {
		t.Fatalf("view frozen before Compact: %v", err)
	}
}
