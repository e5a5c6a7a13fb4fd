package rules

import (
	"context"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func same(s, o rdf.ID) rdf.Triple { return rdf.T(s, rdf.IDSameAs, o) }
func inv(s, o rdf.ID) rdf.Triple  { return rdf.T(s, rdf.IDInverseOf, o) }
func eqc(s, o rdf.ID) rdf.Triple  { return rdf.T(s, rdf.IDEquivalentClass, o) }
func eqp(s, o rdf.ID) rdf.Triple  { return rdf.T(s, rdf.IDEquivalentProperty, o) }

func TestPrpSympBothDirections(t *testing.T) {
	symDecl := ty(p1, rdf.IDSymmetricProperty)
	// Assertion arrives after the declaration.
	got := applyRule(PrpSymp(), []rdf.Triple{symDecl}, []rdf.Triple{rdf.T(x, p1, y)})
	wantTriples(t, got, []rdf.Triple{rdf.T(y, p1, x)})
	// Declaration arrives after the assertions.
	got = applyRule(PrpSymp(), []rdf.Triple{rdf.T(x, p1, y), rdf.T(y, p1, z)}, []rdf.Triple{symDecl})
	wantTriples(t, got, []rdf.Triple{rdf.T(y, p1, x), rdf.T(z, p1, y)})
}

func TestPrpSympIgnoresNonSymmetric(t *testing.T) {
	got := applyRule(PrpSymp(), nil, []rdf.Triple{rdf.T(x, p1, y)})
	if len(got) != 0 {
		t.Fatalf("prp-symp fired without declaration: %v", got)
	}
}

func TestPrpSympSkipsLiterals(t *testing.T) {
	lit := rdf.NewDictionary().Encode(rdf.NewLiteral("v"))
	symDecl := ty(p1, rdf.IDSymmetricProperty)
	got := applyRule(PrpSymp(), []rdf.Triple{symDecl}, []rdf.Triple{rdf.T(x, p1, lit)})
	if len(got) != 0 {
		t.Fatalf("prp-symp mirrored a literal into subject position: %v", got)
	}
}

func TestPrpTrpBothDirections(t *testing.T) {
	trDecl := ty(p1, rdf.IDTransitiveProperty)
	// Declaration first, then assertions.
	got := applyRule(PrpTrp(), []rdf.Triple{trDecl, rdf.T(a, p1, b)}, []rdf.Triple{rdf.T(b, p1, c)})
	wantTriples(t, got, []rdf.Triple{rdf.T(a, p1, c)})
	// Declaration last: one-step closure over the existing extent.
	got = applyRule(PrpTrp(), []rdf.Triple{rdf.T(a, p1, b), rdf.T(b, p1, c)}, []rdf.Triple{trDecl})
	wantTriples(t, got, []rdf.Triple{rdf.T(a, p1, c)})
}

func TestPrpInvBothDirections(t *testing.T) {
	// Declaration in delta: mirror both extents.
	got := applyRule(PrpInv(), []rdf.Triple{rdf.T(x, p1, y), rdf.T(a, p2, b)}, []rdf.Triple{inv(p1, p2)})
	wantTriples(t, got, []rdf.Triple{rdf.T(y, p2, x), rdf.T(b, p1, a)})
	// Assertions in delta.
	got = applyRule(PrpInv(), []rdf.Triple{inv(p1, p2)}, []rdf.Triple{rdf.T(x, p1, y)})
	wantTriples(t, got, []rdf.Triple{rdf.T(y, p2, x)})
	got = applyRule(PrpInv(), []rdf.Triple{inv(p1, p2)}, []rdf.Triple{rdf.T(a, p2, b)})
	wantTriples(t, got, []rdf.Triple{rdf.T(b, p1, a)})
}

func TestPrpEqpReplaysBothWays(t *testing.T) {
	got := applyRule(PrpEqp(), []rdf.Triple{rdf.T(x, p1, y)}, []rdf.Triple{eqp(p1, p2)})
	wantTriples(t, got, []rdf.Triple{rdf.T(x, p2, y)})
	got = applyRule(PrpEqp(), []rdf.Triple{eqp(p1, p2)}, []rdf.Triple{rdf.T(x, p2, y)})
	wantTriples(t, got, []rdf.Triple{rdf.T(x, p1, y)})
}

func TestCaxEqcBothDirections(t *testing.T) {
	got := applyRule(CaxEqc(), []rdf.Triple{ty(x, a)}, []rdf.Triple{eqc(a, b)})
	wantTriples(t, got, []rdf.Triple{ty(x, b)})
	got = applyRule(CaxEqc(), []rdf.Triple{eqc(a, b)}, []rdf.Triple{ty(x, b)})
	wantTriples(t, got, []rdf.Triple{ty(x, a)})
}

func TestScmEqcAndEqp(t *testing.T) {
	got := applyRule(ScmEqc(), nil, []rdf.Triple{eqc(a, b)})
	wantTriples(t, got, []rdf.Triple{sc(a, b), sc(b, a)})
	got = applyRule(ScmEqp(), nil, []rdf.Triple{eqp(p1, p2)})
	wantTriples(t, got, []rdf.Triple{sp(p1, p2), sp(p2, p1)})
}

func TestEqSymTrans(t *testing.T) {
	got := applyRule(EqSymTrans(), nil, []rdf.Triple{same(a, b)})
	wantTriples(t, got, []rdf.Triple{same(b, a)})
	got = applyRule(EqSymTrans(), []rdf.Triple{same(a, b)}, []rdf.Triple{same(b, c)})
	wantTriples(t, got, []rdf.Triple{same(c, b), same(a, c)})
}

func TestEqRepSubstitution(t *testing.T) {
	// sameAs first, then the assertion: substitute subject and object.
	got := applyRule(EqRep(), []rdf.Triple{same(a, b)}, []rdf.Triple{rdf.T(a, p1, c)})
	wantTriples(t, got, []rdf.Triple{rdf.T(b, p1, c)})
	// Assertion first, then the sameAs.
	got = applyRule(EqRep(), []rdf.Triple{rdf.T(a, p1, c)}, []rdf.Triple{same(a, b)})
	wantTriples(t, got, []rdf.Triple{rdf.T(b, p1, c)})
	// Object substitution.
	got = applyRule(EqRep(), []rdf.Triple{same(c, d)}, []rdf.Triple{rdf.T(a, p1, c)})
	wantTriples(t, got, []rdf.Triple{rdf.T(a, p1, d)})
	// Predicate substitution.
	got = applyRule(EqRep(), []rdf.Triple{same(p1, p2)}, []rdf.Triple{rdf.T(a, p1, c)})
	wantTriples(t, got, []rdf.Triple{rdf.T(a, p2, c)})
}

func TestOWLHorstComposition(t *testing.T) {
	rs := OWLHorst()
	if len(rs) != 14+9 {
		t.Fatalf("OWL-Horst has %d rules, want 23", len(rs))
	}
	for _, name := range []string{"prp-symp", "prp-trp", "prp-inv", "prp-eqp",
		"cax-eqc", "scm-eqc", "scm-eqp", "eq-sym-trans", "eq-rep", "cax-sco"} {
		if ByName(rs, name) == nil {
			t.Errorf("OWL-Horst missing %s", name)
		}
	}
	// Dependency graph sanity: scm-eqc feeds the subClassOf rules.
	g := BuildDependencyGraph(rs)
	for _, e := range [][2]string{
		{"scm-eqc", "scm-sco"},
		{"scm-eqc", "cax-sco"},
		{"scm-eqp", "prp-spo1"},
		{"eq-sym-trans", "eq-rep"},
		{"cax-eqc", "cax-eqc"},
	} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %s -> %s", e[0], e[1])
		}
	}
}

// TestOWLHorstFixpointViaBaseline runs a combined scenario to fixpoint
// through a local semi-naive loop and checks the expected closure.
func TestOWLHorstFixpointViaBaseline(t *testing.T) {
	input := []rdf.Triple{
		ty(p1, rdf.IDTransitiveProperty),
		rdf.T(a, p1, b), rdf.T(b, p1, c), rdf.T(c, p1, d),
		eqc(a, b), ty(x, a),
		inv(p2, p3), rdf.T(x, p2, y),
		same(y, z),
	}
	st := store.New()
	closure := fixpoint(t, st, OWLHorst(), input)
	for _, want := range []rdf.Triple{
		rdf.T(a, p1, c), rdf.T(a, p1, d), rdf.T(b, p1, d), // prp-trp
		ty(x, b),           // cax-eqc
		sc(a, b), sc(b, a), // scm-eqc
		rdf.T(y, p3, x), // prp-inv
		same(z, y),      // eq-sym
		rdf.T(x, p2, z), // eq-rep on object
		rdf.T(z, p3, x), // composition: inv + eq-rep
	} {
		if !closure.Contains(want) {
			t.Errorf("closure missing %v", want)
		}
	}
}

// fixpoint runs a semi-naive loop directly (avoiding an import cycle with
// the baseline package, which rules does not depend on).
func fixpoint(t *testing.T, st *store.Store, ruleset []Rule, input []rdf.Triple) *store.Store {
	t.Helper()
	_ = context.Background()
	delta := st.AddBatch(input)
	for round := 0; len(delta) > 0; round++ {
		if round > 10000 {
			t.Fatal("fixpoint did not converge")
		}
		var out []rdf.Triple
		for _, r := range ruleset {
			r.Apply(st, delta, func(tr rdf.Triple) { out = append(out, tr) })
		}
		delta = st.AddBatch(out)
	}
	return st
}
