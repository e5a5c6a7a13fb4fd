package maintenance

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

// randomOntology builds a random input exercising every premise shape of
// the given rule vocabulary richness.
func randomOntology(rng *rand.Rand, owl bool) []rdf.Triple {
	id := func(i int) rdf.ID { return rdf.FirstCustomID + rdf.ID(i) }
	cls := func() rdf.ID { return id(rng.Intn(4)) }
	prop := func() rdf.ID { return id(10 + rng.Intn(3)) }
	inst := func() rdf.ID { return id(100 + rng.Intn(5)) }
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	add := func(t rdf.Triple) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	kinds := 6
	if owl {
		kinds = 12
	}
	n := rng.Intn(14) + 6
	for i := 0; i < n; i++ {
		switch rng.Intn(kinds) {
		case 0:
			add(rdf.T(cls(), rdf.IDSubClassOf, cls()))
		case 1:
			add(rdf.T(prop(), rdf.IDSubPropertyOf, prop()))
		case 2:
			add(rdf.T(inst(), rdf.IDType, cls()))
		case 3:
			add(rdf.T(prop(), rdf.IDDomain, cls()))
		case 4:
			add(rdf.T(prop(), rdf.IDRange, cls()))
		case 5:
			add(rdf.T(inst(), prop(), inst()))
		case 6:
			add(rdf.T(prop(), rdf.IDType, rdf.IDSymmetricProperty))
		case 7:
			add(rdf.T(prop(), rdf.IDType, rdf.IDTransitiveProperty))
		case 8:
			add(rdf.T(prop(), rdf.IDInverseOf, prop()))
		case 9:
			add(rdf.T(cls(), rdf.IDEquivalentClass, cls()))
		case 10:
			add(rdf.T(prop(), rdf.IDEquivalentProperty, prop()))
		case 11:
			add(rdf.T(inst(), rdf.IDSameAs, inst()))
		}
	}
	return out
}

// assertSameStore fails unless st holds exactly the closure of input.
func assertSameStore(t *testing.T, tag string, seed int64, st *store.Store, ruleset []rules.Rule, input []rdf.Triple) {
	t.Helper()
	want, _, err := baseline.Closure(context.Background(), ruleset, input)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != want.Len() {
		t.Fatalf("%s seed %d: store has %d triples, from-scratch closure has %d",
			tag, seed, st.Len(), want.Len())
	}
	want.ForEach(func(tr rdf.Triple) bool {
		if !st.Contains(tr) {
			t.Fatalf("%s seed %d: store missing %v", tag, seed, tr)
		}
		return true
	})
}

// TestSuspectLocalRetractEqualsRebuildAllFragments is the closure-
// equivalence property over the suspect-local path, for all three
// built-in rule sets: retracting a random subset of a random ontology
// leaves exactly the from-scratch closure of the survivors.
func TestSuspectLocalRetractEqualsRebuildAllFragments(t *testing.T) {
	cases := []struct {
		name    string
		ruleset []rules.Rule
		owl     bool
	}{
		{"rhodf", rules.RhoDF(), false},
		{"rdfs", rules.RDFS(), false},
		{"owl-horst", rules.OWLHorst(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !rules.AllSupport(tc.ruleset) {
				t.Fatal("ruleset missing support faces; would silently test the full path")
			}
			for seed := int64(0); seed < 80; seed++ {
				rng := rand.New(rand.NewSource(seed))
				input := randomOntology(rng, tc.owl)
				st := materialize(t, tc.ruleset, input)
				var toDelete, survivors []rdf.Triple
				for _, tr := range input {
					if rng.Intn(3) == 0 {
						toDelete = append(toDelete, tr)
					} else {
						survivors = append(survivors, tr)
					}
				}
				stats, err := Retract(context.Background(), st, tc.ruleset, toDelete)
				if err != nil {
					t.Fatal(err)
				}
				if !stats.TwoPhase {
					t.Fatal("suspect-local path not taken")
				}
				assertSameStore(t, tc.name, seed, st, tc.ruleset, survivors)
			}
		})
	}
}

// TestTwoPhaseRetractWithMidPassMutation drives Prepare/Apply by hand
// with mutations landing between the phases — the exclusive window's
// validate step must fold them in: consequences of mid-pass triples that
// lean on dead suspects die too, mid-pass triples that newly support a
// suspect save it, and a mid-pass re-assert of a retracted triple turns
// it back into an axiom only if it is not itself being retracted.
func TestTwoPhaseRetractWithMidPassMutation(t *testing.T) {
	ruleset := rules.RhoDF()
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		input := randomOntology(rng, false)
		st := materialize(t, ruleset, input)

		var toDelete, survivors []rdf.Triple
		for _, tr := range input {
			if rng.Intn(3) == 0 {
				toDelete = append(toDelete, tr)
			} else {
				survivors = append(survivors, tr)
			}
		}

		// Phase A against a frozen view, exactly as the reasoner runs it.
		sv := st.Freeze()
		pass, err := Prepare(context.Background(), sv, ruleset, toDelete)
		if err != nil {
			sv.Release()
			t.Fatal(err)
		}

		// Mid-pass batch: fresh random triples, plus — with some luck —
		// re-asserts of triples being retracted and triples from the
		// original input (new support for suspects). The engine would
		// have closed the store over the batch before the exclusive
		// window's quiesce, so the test closes it too.
		mid := randomOntology(rng, false)
		if len(toDelete) > 0 && rng.Intn(2) == 0 {
			mid = append(mid, toDelete[rng.Intn(len(toDelete))])
		}
		if rng.Intn(2) == 0 {
			mid = append(mid, input[rng.Intn(len(input))])
		}
		st.AssertBatch(mid)
		if _, err := baseline.New(st, ruleset, baseline.SemiNaive).Close(context.Background()); err != nil {
			sv.Release()
			t.Fatal(err)
		}

		stats := pass.Apply(st)
		sv.Release()
		if !stats.TwoPhase {
			t.Fatal("suspect-local path not taken")
		}

		// Survivors: everything explicit that is not being retracted —
		// mid-pass asserts included, except those in toDelete (the
		// retraction is logically last).
		del := make(map[rdf.Triple]bool, len(toDelete))
		for _, tr := range toDelete {
			del[tr] = true
		}
		seen := make(map[rdf.Triple]bool)
		var want []rdf.Triple
		for _, tr := range append(append([]rdf.Triple{}, survivors...), mid...) {
			if !del[tr] && !seen[tr] {
				seen[tr] = true
				want = append(want, tr)
			}
		}
		assertSameStore(t, "mid-pass", seed, st, ruleset, want)
	}
}

// TestRetractFullMatchesSuspectLocal cross-checks the two paths against
// each other on identical inputs: Retract takes the suspect-local path
// for RDFS, and PrepareFull+Apply is the classic full-store reference.
func TestRetractFullMatchesSuspectLocal(t *testing.T) {
	ruleset := rules.RDFS()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		input := randomOntology(rng, false)
		var toDelete []rdf.Triple
		for _, tr := range input {
			if rng.Intn(3) == 0 {
				toDelete = append(toDelete, tr)
			}
		}
		stA := materialize(t, ruleset, input)
		stB := materialize(t, ruleset, input)
		sA, err := Retract(context.Background(), stA, ruleset, toDelete)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := PrepareFull(context.Background(), stB, ruleset, toDelete)
		if err != nil {
			t.Fatal(err)
		}
		sB := pB.Apply(stB)
		if !sA.TwoPhase || sB.TwoPhase {
			t.Fatalf("paths mixed up: %+v / %+v", sA, sB)
		}
		if sA.Retracted != sB.Retracted {
			t.Fatalf("seed %d: retracted %d vs %d", seed, sA.Retracted, sB.Retracted)
		}
		if stA.Len() != stB.Len() {
			t.Fatalf("seed %d: suspect-local left %d triples, full left %d", seed, stA.Len(), stB.Len())
		}
		stB.ForEach(func(tr rdf.Triple) bool {
			if !stA.Contains(tr) {
				t.Fatalf("seed %d: suspect-local missing %v", seed, tr)
			}
			return true
		})
		if nA, nB := explicitCount(stA), explicitCount(stB); nA != nB {
			t.Fatalf("seed %d: explicit triples diverge: %d vs %d", seed, nA, nB)
		}
	}
}

// TestRetractCancelLeavesStoreUntouched pins the new cancellation
// contract: an error return from the read-only phases means nothing
// changed — no half-retracted store, nothing to poison.
func TestRetractCancelLeavesStoreUntouched(t *testing.T) {
	var input []rdf.Triple
	for i := 0; i < 300; i++ {
		input = append(input, sc(rdf.FirstCustomID+rdf.ID(i), rdf.FirstCustomID+rdf.ID(i+1)))
	}
	st := materialize(t, rules.RhoDF(), input)
	before := st.Len()
	explicitBefore := explicitCount(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Retract(ctx, st, rules.RhoDF(), input[:1]); err == nil {
		t.Fatal("cancelled context ignored")
	}
	if st.Len() != before || explicitCount(st) != explicitBefore {
		t.Fatalf("cancelled retraction mutated state: store %d→%d, explicit %d→%d",
			before, st.Len(), explicitBefore, explicitCount(st))
	}
	// The same pass, uncancelled, still works.
	if _, err := Retract(context.Background(), st, rules.RhoDF(), input[:1]); err != nil {
		t.Fatal(err)
	}
}
