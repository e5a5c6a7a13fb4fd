package rules_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

// maskOne is a Source with exactly one triple hidden: the shape a
// backward support check always sees (the checked suspect is dead, so
// it must never serve as its own premise).
type maskOne struct {
	st   *store.Store
	dead rdf.Triple
}

func (m *maskOne) Contains(t rdf.Triple) bool { return t != m.dead && m.st.Contains(t) }

func (m *maskOne) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	n := len(dst)
	dst = m.st.ObjectsAppend(dst, p, s)
	kept := dst[:n]
	for _, o := range dst[n:] {
		if (rdf.Triple{S: s, P: p, O: o}) != m.dead {
			kept = append(kept, o)
		}
	}
	return kept
}

func (m *maskOne) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	n := len(dst)
	dst = m.st.SubjectsAppend(dst, p, o)
	kept := dst[:n]
	for _, s := range dst[n:] {
		if (rdf.Triple{S: s, P: p, O: o}) != m.dead {
			kept = append(kept, s)
		}
	}
	return kept
}

func (m *maskOne) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	m.st.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
		if (rdf.Triple{S: s, P: p, O: o}) == m.dead {
			return true
		}
		return f(s, o)
	})
}

func (m *maskOne) ForEach(f func(rdf.Triple) bool) {
	m.st.ForEach(func(t rdf.Triple) bool {
		if t == m.dead {
			return true
		}
		return f(t)
	})
}

func (m *maskOne) Predicates() []rdf.ID { return m.st.Predicates() }

// oneStepDerives brute-forces the ground truth: does r's forward Apply,
// run over every triple of src as the delta, emit t?
func oneStepDerives(r rules.Rule, src rules.Source, t rdf.Triple) bool {
	var all []rdf.Triple
	src.ForEach(func(u rdf.Triple) bool {
		all = append(all, u)
		return true
	})
	found := false
	r.Apply(src, all, func(u rdf.Triple) {
		if u == t {
			found = true
		}
	})
	return found
}

// randomInput builds a small random ontology exercising every premise
// shape of the three rule sets: subclass/subproperty schema, typing,
// domain/range, plain property assertions, and the OWL-Horst vocabulary
// (symmetric/transitive/inverse/equivalence/sameAs).
func randomInput(rng *rand.Rand) []rdf.Triple {
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
	n := rng.Intn(14) + 6
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
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

// TestSupportsMatchesOneStepDerivability is the exactness property the
// suspect-local retraction path rests on: for every rule of every
// built-in rule set, Supports(src, t) answers exactly "does forward
// Apply derive t from src" — with t itself hidden from src, as during a
// real support check. Checked for every triple of the closure of random
// ontologies.
func TestSupportsMatchesOneStepDerivability(t *testing.T) {
	rulesets := map[string][]rules.Rule{
		"rhodf":     rules.RhoDF(),
		"rdfs":      rules.RDFS(),
		"owl-horst": rules.OWLHorst(),
	}
	for name, ruleset := range rulesets {
		t.Run(name, func(t *testing.T) {
			if !rules.AllSupport(ruleset) {
				t.Fatalf("built-in ruleset %s has rules without a support face", name)
			}
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				input := randomInput(rng)
				closed, _, err := baseline.Closure(context.Background(), ruleset, input)
				if err != nil {
					t.Fatal(err)
				}
				var all []rdf.Triple
				closed.ForEach(func(u rdf.Triple) bool {
					all = append(all, u)
					return true
				})
				for _, tr := range all {
					src := &maskOne{st: closed, dead: tr}
					for _, r := range ruleset {
						sup, ok := r.(rules.Supporter)
						if !ok {
							t.Fatalf("rule %s: no Supports", r.Name())
						}
						got := sup.Supports(src, tr)
						want := oneStepDerives(r, src, tr)
						if got != want {
							t.Fatalf("seed %d rule %s triple %v: Supports=%v, one-step derivability=%v",
								seed, r.Name(), tr, got, want)
						}
					}
				}
			}
		})
	}
}

// countingSource is a Source that counts the IDs its extent probes hand
// back: the read volume of a support check. It forwards every method by
// hand rather than embedding the wrapped Source, so a probe added to
// Source cannot slip past the count: the wrapper stops compiling.
type countingSource struct {
	src  rules.Source
	read int
}

func (c *countingSource) Contains(t rdf.Triple) bool { return c.src.Contains(t) }

func (c *countingSource) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	n := len(dst)
	dst = c.src.ObjectsAppend(dst, p, s)
	c.read += len(dst) - n
	return dst
}

func (c *countingSource) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	n := len(dst)
	dst = c.src.SubjectsAppend(dst, p, o)
	c.read += len(dst) - n
	return dst
}

func (c *countingSource) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	c.src.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
		c.read++
		return f(s, o)
	})
}

func (c *countingSource) ForEach(f func(rdf.Triple) bool) {
	c.src.ForEach(func(t rdf.Triple) bool {
		c.read++
		return f(t)
	})
}

func (c *countingSource) Predicates() []rdf.ID { return c.src.Predicates() }

// TestSupportsReadsBoundedSide checks that a support check costs what
// the suspect touches, not the size of the hierarchy: over wide = 5 000
// classes and properties sitting directly under rdfs:Resource, Supports
// for cax-sco, scm-sco and scm-dom2 reads the suspect's own types or
// ancestors, never every subclass (or every property with a domain) of
// Resource.
func TestSupportsReadsBoundedSide(t *testing.T) {
	const wide = 5000
	id := func(i int) rdf.ID { return rdf.FirstCustomID + rdf.ID(i) }
	res := rdf.IDResource
	a, b, d := id(wide), id(wide+1), id(wide+2) // a sc b sc Resource; d unrelated
	x, y := id(wide+3), id(wide+4)
	p1, p2 := id(wide+5), id(wide+6) // p1 sp p2, p2 dom Resource
	st := store.New()
	var in []rdf.Triple
	for i := range wide {
		in = append(in,
			rdf.T(id(i), rdf.IDSubClassOf, res),
			rdf.T(id(wide+10+i), rdf.IDDomain, res))
	}
	in = append(in,
		rdf.T(a, rdf.IDSubClassOf, b), rdf.T(b, rdf.IDSubClassOf, res), rdf.T(a, rdf.IDSubClassOf, res),
		rdf.T(x, rdf.IDType, a), rdf.T(x, rdf.IDType, b), rdf.T(x, rdf.IDType, res),
		rdf.T(y, rdf.IDType, d), rdf.T(y, rdf.IDType, res),
		rdf.T(p1, rdf.IDSubPropertyOf, p2), rdf.T(p2, rdf.IDDomain, res), rdf.T(p1, rdf.IDDomain, res))
	st.AddBatch(in)

	cases := []struct {
		rule    rules.Rule
		suspect rdf.Triple
		want    bool
		maxRead int // the suspect's own types or ancestors
	}{
		{rules.CaxSco(), rdf.T(x, rdf.IDType, res), true, 3},
		{rules.CaxSco(), rdf.T(y, rdf.IDType, res), false, 2},
		{rules.ScmSco(), rdf.T(a, rdf.IDSubClassOf, res), true, 2},
		{rules.ScmDom2(), rdf.T(p1, rdf.IDDomain, res), true, 1},
	}
	for _, c := range cases {
		src := &countingSource{src: &maskOne{st: st, dead: c.suspect}}
		if got := c.rule.(rules.Supporter).Supports(src, c.suspect); got != c.want {
			t.Errorf("%s Supports(%v) = %v, want %v", c.rule.Name(), c.suspect, got, c.want)
		}
		if src.read > c.maxRead {
			t.Errorf("%s Supports(%v) read %d IDs, want at most %d (the hierarchy is %d wide)",
				c.rule.Name(), c.suspect, src.read, c.maxRead, wide)
		}
	}
}

// TestCustomRuleSupportGate checks the capability gate: a CustomRule
// without a SupportsFn disqualifies its ruleset from the suspect-local
// path, one with it qualifies.
func TestCustomRuleSupportGate(t *testing.T) {
	plain := &rules.CustomRule{RuleName: "plain"}
	if rules.CanSupport(plain) {
		t.Fatal("CustomRule without SupportsFn claims support")
	}
	if rules.AllSupport(append(rules.RhoDF(), plain)) {
		t.Fatal("ruleset with unsupporting rule passes AllSupport")
	}
	withFn := &rules.CustomRule{
		RuleName:   "with-fn",
		SupportsFn: func(rules.Source, rdf.Triple) bool { return false },
	}
	if !rules.CanSupport(withFn) {
		t.Fatal("CustomRule with SupportsFn not recognised")
	}
	if !rules.AllSupport(append(rules.RhoDF(), withFn)) {
		t.Fatal("fully-supporting ruleset fails AllSupport")
	}
}
