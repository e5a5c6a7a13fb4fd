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
		checkRun(buildRun(ps)) // sanity: a well-formed run passes
	}

	corrupt := func(name string, pairs bool, mutate func(r *run)) {
		withForm(t, &pairs)
		r := buildRun(ps)
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

func TestAccountingDetectsDrift(t *testing.T) {
	p := newPartition(0)
	p.add(1, 2)
	p.add(1, 3)
	p.assertAccounting() // sanity

	p.n++ // simulate a lost update
	mustPanic(t, "accounting drift", func() { p.assertAccounting() })
}

func TestLivenessAssertions(t *testing.T) {
	p := newPartition(0)
	p.add(1, 2)
	p.assertLive(1, 2)
	mustPanic(t, "dead pair asserted live", func() { p.assertLive(1, 99) })

	p.remove(1, 2)
	p.assertDead(1, 2)
	p.add(1, 2)
	mustPanic(t, "live pair asserted dead", func() { p.assertDead(1, 2) })
}

func TestTombstoneResurrectExclusivity(t *testing.T) {
	// Flush an overlay pair into a run, tombstone it, then resurrect it:
	// the add/remove hooks assert the one-physical-home invariant at
	// every step, so reaching the end without a panic is the test.
	st := New()
	tr := rdf.Triple{S: 1, P: 2, O: 3}
	st.Add(tr)
	st.FlushOverlays()
	if !st.Remove(tr) {
		t.Fatal("remove after flush failed")
	}
	if st.Add(tr) != true {
		t.Fatal("resurrect failed")
	}
	if !st.Contains(tr) {
		t.Fatal("resurrected triple missing")
	}
}

func TestOverlayShapeDetectsCorruption(t *testing.T) {
	corrupt := func(name string, s, o rdf.ID, mutate func(p *partition)) {
		p := newPartition(0)
		p.add(1, 2)
		p.add(1, 3)
		p.assertOverlayShape(1, 3) // sanity: onum 2 takes the full scan
		mutate(p)
		mustPanic(t, name, func() { p.assertOverlayShape(s, o) })
	}
	corrupt("empty set at the touched subject", 4, 2, func(p *partition) { p.so[4] = idSet{} })
	corrupt("empty set at the touched object", 1, 5, func(p *partition) { p.os[5] = idSet{} })
	corrupt("empty set elsewhere", rdf.Any, rdf.Any, func(p *partition) { p.so[4] = idSet{} })
	corrupt("object map drift", rdf.Any, rdf.Any, func(p *partition) { p.os[3][9] = struct{}{} })
	corrupt("subject map drift", rdf.Any, rdf.Any, func(p *partition) { delete(p.so[1], 2) })
}
