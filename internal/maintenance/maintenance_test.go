package maintenance

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

const (
	a rdf.ID = rdf.FirstCustomID + iota
	b
	c
	d
	e
	x
)

func sc(s, o rdf.ID) rdf.Triple { return rdf.T(s, rdf.IDSubClassOf, o) }
func ty(s, o rdf.ID) rdf.Triple { return rdf.T(s, rdf.IDType, o) }

// materialize builds a closed store from input, with input explicit.
func materialize(t *testing.T, ruleset []rules.Rule, input []rdf.Triple) *store.Store {
	t.Helper()
	st := store.New()
	if _, err := baseline.New(st, ruleset, baseline.SemiNaive).Materialize(context.Background(), input); err != nil {
		t.Fatal(err)
	}
	st.AssertBatch(input)
	return st
}

// explicitCount returns how many of st's triples are explicit.
func explicitCount(st *store.Store) int {
	n := 0
	st.ForEach(func(t rdf.Triple) bool {
		if st.Explicit(t) {
			n++
		}
		return true
	})
	return n
}

// assertClosureOf checks st equals the from-scratch closure of input.
func assertClosureOf(t *testing.T, st *store.Store, ruleset []rules.Rule, input []rdf.Triple) {
	t.Helper()
	want, _, err := baseline.Closure(context.Background(), ruleset, input)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != want.Len() {
		t.Fatalf("store has %d triples, from-scratch closure has %d", st.Len(), want.Len())
	}
	want.ForEach(func(tr rdf.Triple) bool {
		if !st.Contains(tr) {
			t.Fatalf("store missing %v", tr)
		}
		return true
	})
}

func TestRetractLeafEdge(t *testing.T) {
	input := []rdf.Triple{sc(a, b), sc(b, c), sc(c, d)}
	st := materialize(t, rules.RhoDF(), input)
	stats, err := Retract(context.Background(), st, rules.RhoDF(), []rdf.Triple{sc(c, d)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retracted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// (a sc d), (b sc d), (c sc d) gone; (a sc c) stays.
	for _, gone := range []rdf.Triple{sc(c, d), sc(a, d), sc(b, d)} {
		if st.Contains(gone) {
			t.Errorf("still contains %v", gone)
		}
	}
	if !st.Contains(sc(a, c)) {
		t.Error("(a sc c) should survive")
	}
	assertClosureOf(t, st, rules.RhoDF(), []rdf.Triple{sc(a, b), sc(b, c)})
}

func TestRetractWithAlternativeDerivation(t *testing.T) {
	// Two paths from a to c: via b and via e. Deleting the b-path must
	// keep (a sc c), which is rederivable via e.
	input := []rdf.Triple{sc(a, b), sc(b, c), sc(a, e), sc(e, c)}
	st := materialize(t, rules.RhoDF(), input)
	stats, err := Retract(context.Background(), st, rules.RhoDF(), []rdf.Triple{sc(a, b)})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Contains(sc(a, c)) {
		t.Fatal("(a sc c) lost despite alternative derivation")
	}
	if stats.Rederived == 0 {
		t.Fatalf("expected rederivation, stats = %+v", stats)
	}
	assertClosureOf(t, st, rules.RhoDF(), []rdf.Triple{sc(b, c), sc(a, e), sc(e, c)})
}

func TestRetractInstanceTyping(t *testing.T) {
	input := []rdf.Triple{sc(a, b), ty(x, a)}
	st := materialize(t, rules.RhoDF(), input)
	if _, err := Retract(context.Background(), st, rules.RhoDF(), []rdf.Triple{ty(x, a)}); err != nil {
		t.Fatal(err)
	}
	if st.Contains(ty(x, b)) || st.Contains(ty(x, a)) {
		t.Fatal("typing not fully retracted")
	}
	assertClosureOf(t, st, rules.RhoDF(), []rdf.Triple{sc(a, b)})
}

func TestRetractExplicitTripleAlsoDerivable(t *testing.T) {
	// (a sc c) is explicit AND derivable via b. Retracting it removes
	// the assertion, but rederivation restores the triple.
	input := []rdf.Triple{sc(a, b), sc(b, c), sc(a, c)}
	st := materialize(t, rules.RhoDF(), input)
	if _, err := Retract(context.Background(), st, rules.RhoDF(), []rdf.Triple{sc(a, c)}); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(sc(a, c)) {
		t.Fatal("(a sc c) should be rederived from the chain")
	}
	if st.Explicit(sc(a, c)) {
		t.Fatal("(a sc c) is still explicit: the retraction did not demote it")
	}
	assertClosureOf(t, st, rules.RhoDF(), []rdf.Triple{sc(a, b), sc(b, c)})
}

func TestRetractUnknownTripleIsNoop(t *testing.T) {
	input := []rdf.Triple{sc(a, b)}
	st := materialize(t, rules.RhoDF(), input)
	stats, err := Retract(context.Background(), st, rules.RhoDF(), []rdf.Triple{sc(c, d), sc(a, b)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retracted != 1 { // only the known one
		t.Fatalf("stats = %+v", stats)
	}
	// Retracting an inferred (non-explicit) triple is also a no-op.
	input2 := []rdf.Triple{sc(a, b), sc(b, c)}
	st2 := materialize(t, rules.RhoDF(), input2)
	stats, err = Retract(context.Background(), st2, rules.RhoDF(), []rdf.Triple{sc(a, c)})
	if err != nil || stats.Retracted != 0 {
		t.Fatalf("retracting inferred triple: %+v, %v", stats, err)
	}
	if !st2.Contains(sc(a, c)) {
		t.Fatal("inferred triple should remain")
	}
}

func TestRetractEverything(t *testing.T) {
	input := []rdf.Triple{sc(a, b), sc(b, c), ty(x, a)}
	st := materialize(t, rules.RhoDF(), input)
	if _, err := Retract(context.Background(), st, rules.RhoDF(), input); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("store not empty after total retraction: %d triples %v", st.Len(), st.Snapshot())
	}
	if n := explicitCount(st); n != 0 {
		t.Fatalf("%d triples still explicit", n)
	}
}

func TestRetractContextCancellation(t *testing.T) {
	// Large chain so overdeletion has work to cancel.
	var input []rdf.Triple
	for i := 0; i < 300; i++ {
		input = append(input, sc(rdf.FirstCustomID+rdf.ID(i), rdf.FirstCustomID+rdf.ID(i+1)))
	}
	st := materialize(t, rules.RhoDF(), input)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Retract(ctx, st, rules.RhoDF(), input[:1]); err == nil {
		t.Fatal("cancelled context ignored")
	}
}

// Property: retract ≡ rebuild. For random small ontologies and random
// retraction subsets, DRed yields exactly the closure of the surviving
// explicit triples.
func TestRetractEqualsRebuildProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var input []rdf.Triple
		nc := rng.Intn(6) + 3
		id := func(i int) rdf.ID { return rdf.FirstCustomID + rdf.ID(i) }
		seen := map[rdf.Triple]bool{}
		for i := 0; i < rng.Intn(15)+5; i++ {
			var tr rdf.Triple
			if rng.Intn(3) == 0 {
				tr = ty(id(rng.Intn(nc)+100), id(rng.Intn(nc)))
			} else {
				tr = sc(id(rng.Intn(nc)), id(rng.Intn(nc)))
			}
			if !seen[tr] {
				seen[tr] = true
				input = append(input, tr)
			}
		}
		st := materialize(t, rules.RhoDF(), input)
		// Retract a random subset.
		var toDelete, survivors []rdf.Triple
		for _, tr := range input {
			if rng.Intn(3) == 0 {
				toDelete = append(toDelete, tr)
			} else {
				survivors = append(survivors, tr)
			}
		}
		if _, err := Retract(context.Background(), st, rules.RhoDF(), toDelete); err != nil {
			return false
		}
		want, _, err := baseline.Closure(context.Background(), rules.RhoDF(), survivors)
		if err != nil {
			return false
		}
		if st.Len() != want.Len() {
			t.Logf("seed %d: got %d triples, want %d (deleted %d of %d)",
				seed, st.Len(), want.Len(), len(toDelete), len(input))
			return false
		}
		ok := true
		want.ForEach(func(tr rdf.Triple) bool {
			if !st.Contains(tr) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRetractCycleSupport(t *testing.T) {
	// Circular support: (a sc b), (b sc a) make everything mutually
	// derivable; retracting one explicit edge must not leave orphaned
	// self-supporting triples.
	input := []rdf.Triple{sc(a, b), sc(b, a)}
	st := materialize(t, rules.RhoDF(), input)
	if !st.Contains(sc(a, a)) {
		t.Fatal("precondition: cycle closure missing")
	}
	if _, err := Retract(context.Background(), st, rules.RhoDF(), []rdf.Triple{sc(b, a)}); err != nil {
		t.Fatal(err)
	}
	assertClosureOf(t, st, rules.RhoDF(), []rdf.Triple{sc(a, b)})
	if st.Contains(sc(a, a)) || st.Contains(sc(b, b)) {
		t.Fatal("self-supporting cycle remnants survived retraction")
	}
}

func chainName(n int) string { return fmt.Sprintf("chain%d", n) }

func TestRetractFromLongChain(t *testing.T) {
	var input []rdf.Triple
	n := 60
	for i := 0; i < n; i++ {
		input = append(input, sc(rdf.FirstCustomID+rdf.ID(i), rdf.FirstCustomID+rdf.ID(i+1)))
	}
	st := materialize(t, rules.RhoDF(), input)
	// Cut the chain in the middle.
	mid := input[n/2]
	stats, err := Retract(context.Background(), st, rules.RhoDF(), []rdf.Triple{mid})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overdeleted == 0 {
		t.Fatalf("expected overdeletion on chain cut: %+v", stats)
	}
	var survivors []rdf.Triple
	for _, tr := range input {
		if tr != mid {
			survivors = append(survivors, tr)
		}
	}
	assertClosureOf(t, st, rules.RhoDF(), survivors)
	_ = chainName(n)
}
