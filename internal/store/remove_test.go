package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestRemoveBasics(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	st.Add(tr(1, 2, 4))
	if !st.Remove(tr(1, 2, 3)) {
		t.Fatal("Remove of present triple returned false")
	}
	if st.Remove(tr(1, 2, 3)) {
		t.Fatal("Remove of absent triple returned true")
	}
	if st.Contains(tr(1, 2, 3)) || !st.Contains(tr(1, 2, 4)) {
		t.Fatal("wrong triple removed")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
}

func TestRemoveMissingPaths(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	if st.Remove(tr(1, 9, 3)) { // absent predicate
		t.Fatal("removed with absent predicate")
	}
	if st.Remove(tr(9, 2, 3)) { // absent subject
		t.Fatal("removed with absent subject")
	}
	if st.Remove(tr(1, 2, 9)) { // absent object
		t.Fatal("removed with absent object")
	}
	if st.Len() != 1 {
		t.Fatal("store mutated by failed removes")
	}
}

func TestRemovePrunesIndexes(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	st.Remove(tr(1, 2, 3))
	if st.PredicateLen(2) != 0 {
		t.Fatal("predicate not drained")
	}
	if st.root().list(2) != nil || len(st.Predicates()) != 0 {
		t.Fatal("drained predicate still in the root")
	}
	// Both directions of the index must be clean.
	if st.ObjectsAppend(nil, 2, 1) != nil || st.SubjectsAppend(nil, 2, 3) != nil {
		t.Fatal("index remnants after remove")
	}
	// Re-adding works normally after pruning.
	if !st.Add(tr(1, 2, 3)) {
		t.Fatal("re-add after prune not fresh")
	}
}

func TestRemoveAll(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	st.Add(tr(4, 5, 6))
	n := st.RemoveAll([]rdf.Triple{tr(1, 2, 3), tr(7, 8, 9), tr(4, 5, 6)})
	if n != 2 || st.Len() != 0 {
		t.Fatalf("RemoveAll = %d, Len = %d", n, st.Len())
	}
}

// Property: a random interleaving of adds and removes leaves the store
// exactly matching a reference map, with both index directions agreeing.
func TestAddRemoveInterleavingProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := New()
		ref := map[rdf.Triple]bool{}
		for i := 0; i < int(n)*6; i++ {
			x := tr(uint64(rng.Intn(8)), uint64(rng.Intn(3)+1), uint64(rng.Intn(8)))
			if rng.Intn(2) == 0 {
				if st.Add(x) != !ref[x] {
					return false
				}
				ref[x] = true
			} else {
				if st.Remove(x) != ref[x] {
					return false
				}
				delete(ref, x)
			}
		}
		if st.Len() != len(ref) {
			return false
		}
		for x := range ref {
			if !st.Contains(x) {
				return false
			}
			// Index consistency both ways.
			found := false
			for _, o := range st.ObjectsAppend(nil, x.P, x.S) {
				if o == x.O {
					found = true
				}
			}
			if !found {
				return false
			}
			found = false
			for _, s := range st.SubjectsAppend(nil, x.P, x.O) {
				if s == x.S {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
