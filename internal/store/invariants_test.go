//go:build slider_invariants

package store

import (
	"testing"

	"repro/internal/rdf"
)

// These tests only exist under the slider_invariants tag: they verify
// the assertions fire on corrupted state, i.e. that the invariant layer
// is not a silent no-op.

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", name)
		}
	}()
	f()
}

func TestInvariantsEnabled(t *testing.T) {
	if !invariantsEnabled {
		t.Fatal("slider_invariants build without invariantsEnabled=true")
	}
}

func TestCheckRunDetectsCorruption(t *testing.T) {
	// Object 5 has two subjects so the object direction has a span of
	// length 2 (the object-direction corruption below needs one).
	ps := []pair{{s: 1, o: 5}, {s: 1, o: 7}, {s: 2, o: 5}, {s: 3, o: 2}}
	for _, pairs := range []bool{false, true} {
		withForm(t, &pairs)
		checkRun(runOf(ps, false)) // sanity: a well-formed run passes
	}

	corrupt := func(name string, pairs bool, mutate func(r *run)) {
		withForm(t, &pairs)
		r := runOf(ps, false)
		mutate(r)
		mustPanic(t, name, func() { checkRun(r) })
	}
	// CSR form: subject keys 1,2,3 with offsets 0,2,3,4.
	corrupt("descending keys", false, func(r *run) { r.bySub.keys[0], r.bySub.keys[1] = r.bySub.keys[1], r.bySub.keys[0] })
	corrupt("descending span", false, func(r *run) { r.bySub.vals[0], r.bySub.vals[1] = r.bySub.vals[1], r.bySub.vals[0] })
	corrupt("offset drift", false, func(r *run) { r.bySub.off[1] = r.bySub.off[1] + 1 })
	corrupt("pair count drift", false, func(r *run) { r.pairs++ })
	// Object keys sort 2,5,7: swapping two breaks what binary search
	// relies on, so a probe for object 5 could miss its span.
	corrupt("swapped object keys", false, func(r *run) { r.byObj.keys[0], r.byObj.keys[1] = r.byObj.keys[1], r.byObj.keys[0] })
	// By (object, subject) the pairs sort (3,2),(1,5),(2,5),(1,7):
	// indices 1 and 2 are object 5's span.
	corrupt("object direction", false, func(r *run) { r.byObj.vals[1], r.byObj.vals[2] = r.byObj.vals[2], r.byObj.vals[1] })
	corrupt("distinct key drift", false, func(r *run) { r.byObj.nkeys++ })

	// Pair form: subject keys 1,1,2,3 beside objects 5,7,5,2.
	corrupt("pair key/value length mismatch", true, func(r *run) { r.bySub.keys = r.bySub.keys[:3] })
	corrupt("pair descending key", true, func(r *run) { r.bySub.keys[1], r.bySub.keys[2] = r.bySub.keys[2], r.bySub.keys[1] })
	corrupt("pair repeated (key, value)", true, func(r *run) { r.bySub.vals[1] = r.bySub.vals[0] })
	corrupt("pair descending value", true, func(r *run) { r.bySub.vals[0], r.bySub.vals[1] = r.bySub.vals[1], r.bySub.vals[0] })
	corrupt("pair distinct key drift", true, func(r *run) { r.bySub.nkeys-- })
}

func TestRunListDetectsCorruption(t *testing.T) {
	add := func(ps ...pair) *run { sortPairs(ps); return runOf(ps, false) }
	del := func(ps ...pair) *run { sortPairs(ps); return runOf(ps, true) }
	a, b, c := pair{s: 1, o: 2}, pair{s: 1, o: 3}, pair{s: 4, o: 2}
	// Sanity: add, marker, add alternation with the right count passes.
	list := []*run{add(a, b), del(a), add(a, c)}
	checkRunList(list, 3, list...)

	check := func(n int, runs ...*run) func() { return func() { checkRunList(runs, n, runs...) } }
	mustPanic(t, "accounting drift", check(2, add(a, b), del(a)))
	mustPanic(t, "two adds of one pair", check(3, add(a, b), add(a)))
	mustPanic(t, "marker before its add", check(1, del(a), add(a, b)))
	mustPanic(t, "two markers in a row", check(0, add(a, b), del(a), del(a)))
	mustPanic(t, "empty run", check(1, add(a), add()))
	over := make([]*run, maxRuns+1)
	for i := range over {
		over[i] = add(pair{s: rdf.ID(i + 1), o: 1})
	}
	mustPanic(t, "run bound", check(len(over), over...))
}

func TestMarkerResurrectAlternation(t *testing.T) {
	// Compact a pair into a run, remove it, bring it back, remove it and
	// merge: every install asserts the run-list invariants, so reaching
	// the end without a panic is the test.
	st := New()
	tr := rdf.Triple{S: 1, P: 2, O: 3}
	st.AddBatch([]rdf.Triple{tr, {S: 1, P: 2, O: 4}})
	st.Compact()
	if !st.Remove(tr) {
		t.Fatal("remove after compaction failed")
	}
	if st.Add(tr) != true {
		t.Fatal("re-add failed")
	}
	if !st.Contains(tr) {
		t.Fatal("re-added triple missing")
	}
	st.Remove(tr)
	st.Compact()
	if st.Contains(tr) || st.Len() != 1 {
		t.Fatalf("after compaction: Contains = %v, Len = %d", st.Contains(tr), st.Len())
	}
}
