package rules

import (
	"repro/internal/rdf"
)

// This file implements an OWL-Horst-style (pD*) extension fragment — the
// paper's first future-work item: "implement more complex inference
// rules, in order to implement reasoning over a more complex fragments".
// The rules follow the OWL 2 RL profile naming and cover property
// characteristics (symmetric, transitive, inverse), class/property
// equivalence, and owl:sameAs equality reasoning. Existential (blank-node
// introducing) rules are out of scope, as in OWL Horst.

// prpSymp implements prp-symp:
// (p type SymmetricProperty), (x p y) → (y p x).
type prpSymp struct{}

func (prpSymp) Name() string      { return "prp-symp" }
func (prpSymp) Inputs() []rdf.ID  { return nil }
func (prpSymp) Outputs() []rdf.ID { return []rdf.ID{AnyPredicate} }

func (prpSymp) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	for _, t := range delta {
		if t.P == rdf.IDType && t.O == rdf.IDSymmetricProperty {
			// New symmetric property: mirror its existing extent.
			src.ForEachWithPredicate(t.S, func(x, y rdf.ID) bool {
				if !x.IsLiteral() {
					emit(rdf.Triple{S: y, P: t.S, O: x})
				}
				return true
			})
			continue
		}
		if t.O.IsLiteral() {
			continue // literals cannot be subjects
		}
		if src.Contains(rdf.Triple{S: t.P, P: rdf.IDType, O: rdf.IDSymmetricProperty}) {
			emit(rdf.Triple{S: t.O, P: t.P, O: t.S})
		}
	}
}

func (prpSymp) Supports(src Source, t rdf.Triple) bool {
	return !t.S.IsLiteral() &&
		src.Contains(rdf.Triple{S: t.P, P: rdf.IDType, O: rdf.IDSymmetricProperty}) &&
		src.Contains(rdf.Triple{S: t.O, P: t.P, O: t.S})
}

// prpTrp implements prp-trp:
// (p type TransitiveProperty), (x p y), (y p z) → (x p z).
type prpTrp struct{}

func (prpTrp) Name() string      { return "prp-trp" }
func (prpTrp) Inputs() []rdf.ID  { return nil }
func (prpTrp) Outputs() []rdf.ID { return []rdf.ID{AnyPredicate} }

func (prpTrp) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		if t.P == rdf.IDType && t.O == rdf.IDTransitiveProperty {
			// New transitive property: close its existing extent one
			// step; subsequent deltas complete the fixpoint.
			p := t.S
			src.ForEachWithPredicate(p, func(x, y rdf.ID) bool {
				buf = src.ObjectsAppend(buf[:0], p, y)
				for _, z := range buf {
					emit(rdf.Triple{S: x, P: p, O: z})
				}
				return true
			})
			continue
		}
		if !src.Contains(rdf.Triple{S: t.P, P: rdf.IDType, O: rdf.IDTransitiveProperty}) {
			continue
		}
		buf = src.ObjectsAppend(buf[:0], t.P, t.O)
		for _, z := range buf {
			emit(rdf.Triple{S: t.S, P: t.P, O: z})
		}
		buf = src.SubjectsAppend(buf[:0], t.P, t.S)
		for _, x := range buf {
			emit(rdf.Triple{S: x, P: t.P, O: t.O})
		}
	}
}

func (prpTrp) Supports(src Source, t rdf.Triple) bool {
	if !src.Contains(rdf.Triple{S: t.P, P: rdf.IDType, O: rdf.IDTransitiveProperty}) {
		return false
	}
	// ∃ y: (t.S t.P y), (y t.P t.O). Walk t.S's side.
	for _, y := range src.ObjectsAppend(nil, t.P, t.S) {
		if src.Contains(rdf.Triple{S: y, P: t.P, O: t.O}) {
			return true
		}
	}
	return false
}

// prpInv implements prp-inv1 and prp-inv2:
// (p inverseOf q), (x p y) → (y q x); (p inverseOf q), (x q y) → (y p x).
type prpInv struct{}

func (prpInv) Name() string      { return "prp-inv" }
func (prpInv) Inputs() []rdf.ID  { return nil }
func (prpInv) Outputs() []rdf.ID { return []rdf.ID{AnyPredicate} }

func (prpInv) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	mirror := func(from, to rdf.ID) {
		src.ForEachWithPredicate(from, func(x, y rdf.ID) bool {
			if !y.IsLiteral() {
				emit(rdf.Triple{S: y, P: to, O: x})
			}
			return true
		})
	}
	var buf []rdf.ID
	for _, t := range delta {
		if t.P == rdf.IDInverseOf {
			mirror(t.S, t.O)
			mirror(t.O, t.S)
			continue
		}
		if t.O.IsLiteral() {
			continue
		}
		buf = src.ObjectsAppend(buf[:0], rdf.IDInverseOf, t.P)
		buf = src.SubjectsAppend(buf, rdf.IDInverseOf, t.P)
		for _, q := range buf {
			emit(rdf.Triple{S: t.O, P: q, O: t.S})
		}
	}
}

func (prpInv) Supports(src Source, t rdf.Triple) bool {
	if t.S.IsLiteral() {
		return false
	}
	// ∃ q: (q inverseOf t.P) or (t.P inverseOf q), with (t.O q t.S).
	qs := src.SubjectsAppend(nil, rdf.IDInverseOf, t.P)
	for _, q := range src.ObjectsAppend(qs, rdf.IDInverseOf, t.P) {
		if src.Contains(rdf.Triple{S: t.O, P: q, O: t.S}) {
			return true
		}
	}
	return false
}

// prpEqp implements prp-eqp1/prp-eqp2:
// (p equivalentProperty q), (x p y) → (x q y), and symmetrically.
type prpEqp struct{}

func (prpEqp) Name() string      { return "prp-eqp" }
func (prpEqp) Inputs() []rdf.ID  { return nil }
func (prpEqp) Outputs() []rdf.ID { return []rdf.ID{AnyPredicate} }

func (prpEqp) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	replay := func(from, to rdf.ID) {
		if from == to {
			return
		}
		src.ForEachWithPredicate(from, func(x, y rdf.ID) bool {
			emit(rdf.Triple{S: x, P: to, O: y})
			return true
		})
	}
	var buf []rdf.ID
	for _, t := range delta {
		if t.P == rdf.IDEquivalentProperty {
			replay(t.S, t.O)
			replay(t.O, t.S)
			continue
		}
		buf = src.ObjectsAppend(buf[:0], rdf.IDEquivalentProperty, t.P)
		buf = src.SubjectsAppend(buf, rdf.IDEquivalentProperty, t.P)
		for _, q := range buf {
			if q != t.P {
				emit(rdf.Triple{S: t.S, P: q, O: t.O})
			}
		}
	}
}

func (prpEqp) Supports(src Source, t rdf.Triple) bool {
	// ∃ p ≠ t.P: (p eqP t.P) or (t.P eqP p), with (t.S p t.O).
	ps := src.SubjectsAppend(nil, rdf.IDEquivalentProperty, t.P)
	for _, p := range src.ObjectsAppend(ps, rdf.IDEquivalentProperty, t.P) {
		if p != t.P && src.Contains(rdf.Triple{S: t.S, P: p, O: t.O}) {
			return true
		}
	}
	return false
}

// caxEqc implements cax-eqc1/cax-eqc2:
// (c equivalentClass d), (x type c) → (x type d), and symmetrically.
type caxEqc struct{}

func (caxEqc) Name() string      { return "cax-eqc" }
func (caxEqc) Inputs() []rdf.ID  { return []rdf.ID{rdf.IDEquivalentClass, rdf.IDType} }
func (caxEqc) Outputs() []rdf.ID { return []rdf.ID{rdf.IDType} }

func (caxEqc) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		switch t.P {
		case rdf.IDEquivalentClass:
			buf = src.SubjectsAppend(buf[:0], rdf.IDType, t.S)
			for _, x := range buf {
				emit(rdf.Triple{S: x, P: rdf.IDType, O: t.O})
			}
			buf = src.SubjectsAppend(buf[:0], rdf.IDType, t.O)
			for _, x := range buf {
				emit(rdf.Triple{S: x, P: rdf.IDType, O: t.S})
			}
		case rdf.IDType:
			buf = src.ObjectsAppend(buf[:0], rdf.IDEquivalentClass, t.O)
			buf = src.SubjectsAppend(buf, rdf.IDEquivalentClass, t.O)
			for _, d := range buf {
				emit(rdf.Triple{S: t.S, P: rdf.IDType, O: d})
			}
		}
	}
}

func (caxEqc) Supports(src Source, t rdf.Triple) bool {
	if t.P != rdf.IDType {
		return false
	}
	// ∃ c: (c eqC t.O) or (t.O eqC c), with (t.S type c). Walk t.S's
	// own types, as cax-sco does.
	for _, c := range src.ObjectsAppend(nil, rdf.IDType, t.S) {
		if src.Contains(rdf.Triple{S: c, P: rdf.IDEquivalentClass, O: t.O}) ||
			src.Contains(rdf.Triple{S: t.O, P: rdf.IDEquivalentClass, O: c}) {
			return true
		}
	}
	return false
}

// scmEqc implements scm-eqc1: (c equivalentClass d) → (c sc d), (d sc c).
type scmEqc struct{}

func (scmEqc) Name() string      { return "scm-eqc" }
func (scmEqc) Inputs() []rdf.ID  { return []rdf.ID{rdf.IDEquivalentClass} }
func (scmEqc) Outputs() []rdf.ID { return []rdf.ID{rdf.IDSubClassOf} }

func (scmEqc) Apply(_ Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	for _, t := range delta {
		if t.P != rdf.IDEquivalentClass {
			continue
		}
		emit(rdf.Triple{S: t.S, P: rdf.IDSubClassOf, O: t.O})
		emit(rdf.Triple{S: t.O, P: rdf.IDSubClassOf, O: t.S})
	}
}

func (scmEqc) Supports(src Source, t rdf.Triple) bool {
	return t.P == rdf.IDSubClassOf &&
		(src.Contains(rdf.Triple{S: t.S, P: rdf.IDEquivalentClass, O: t.O}) ||
			src.Contains(rdf.Triple{S: t.O, P: rdf.IDEquivalentClass, O: t.S}))
}

// scmEqp implements scm-eqp1: (p equivalentProperty q) → (p sp q), (q sp p).
type scmEqp struct{}

func (scmEqp) Name() string      { return "scm-eqp" }
func (scmEqp) Inputs() []rdf.ID  { return []rdf.ID{rdf.IDEquivalentProperty} }
func (scmEqp) Outputs() []rdf.ID { return []rdf.ID{rdf.IDSubPropertyOf} }

func (scmEqp) Apply(_ Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	for _, t := range delta {
		if t.P != rdf.IDEquivalentProperty {
			continue
		}
		emit(rdf.Triple{S: t.S, P: rdf.IDSubPropertyOf, O: t.O})
		emit(rdf.Triple{S: t.O, P: rdf.IDSubPropertyOf, O: t.S})
	}
}

func (scmEqp) Supports(src Source, t rdf.Triple) bool {
	return t.P == rdf.IDSubPropertyOf &&
		(src.Contains(rdf.Triple{S: t.S, P: rdf.IDEquivalentProperty, O: t.O}) ||
			src.Contains(rdf.Triple{S: t.O, P: rdf.IDEquivalentProperty, O: t.S}))
}

// eqSymTrans implements eq-sym and eq-trans:
// (x sameAs y) → (y sameAs x); (x sameAs y), (y sameAs z) → (x sameAs z).
type eqSymTrans struct{}

func (eqSymTrans) Name() string      { return "eq-sym-trans" }
func (eqSymTrans) Inputs() []rdf.ID  { return []rdf.ID{rdf.IDSameAs} }
func (eqSymTrans) Outputs() []rdf.ID { return []rdf.ID{rdf.IDSameAs} }

func (eqSymTrans) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		if t.P != rdf.IDSameAs {
			continue
		}
		if t.S != t.O {
			emit(rdf.Triple{S: t.O, P: rdf.IDSameAs, O: t.S})
		}
		buf = src.ObjectsAppend(buf[:0], rdf.IDSameAs, t.O)
		for _, z := range buf {
			emit(rdf.Triple{S: t.S, P: rdf.IDSameAs, O: z})
		}
		buf = src.SubjectsAppend(buf[:0], rdf.IDSameAs, t.S)
		for _, x := range buf {
			emit(rdf.Triple{S: x, P: rdf.IDSameAs, O: t.O})
		}
	}
}

func (eqSymTrans) Supports(src Source, t rdf.Triple) bool {
	if t.P != rdf.IDSameAs {
		return false
	}
	// Symmetry: (t.O sameAs t.S), emitted only for distinct ends.
	if t.S != t.O && src.Contains(rdf.Triple{S: t.O, P: rdf.IDSameAs, O: t.S}) {
		return true
	}
	// Transitivity: ∃ m: (t.S sameAs m), (m sameAs t.O).
	for _, m := range src.ObjectsAppend(nil, rdf.IDSameAs, t.S) {
		if src.Contains(rdf.Triple{S: m, P: rdf.IDSameAs, O: t.O}) {
			return true
		}
	}
	return false
}

// eqRep implements eq-rep-s and eq-rep-o: replace sameAs-equal resources
// in subject and object position. (Predicate replacement, eq-rep-p, is
// included for completeness; it is rare in practice.)
type eqRep struct{}

func (eqRep) Name() string      { return "eq-rep" }
func (eqRep) Inputs() []rdf.ID  { return nil }
func (eqRep) Outputs() []rdf.ID { return []rdf.ID{AnyPredicate} }

func (eqRep) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		if t.P == rdf.IDSameAs {
			// (x sameAs y): rewrite existing triples mentioning x to
			// mention y (the symmetric closure handles the other way).
			x, y := t.S, t.O
			if x == y {
				continue
			}
			src.ForEach(func(u rdf.Triple) bool {
				if u.P == rdf.IDSameAs {
					return true
				}
				if u.S == x {
					emit(rdf.Triple{S: y, P: u.P, O: u.O})
				}
				if u.O == x {
					emit(rdf.Triple{S: u.S, P: u.P, O: y})
				}
				if u.P == x {
					emit(rdf.Triple{S: u.S, P: y, O: u.O})
				}
				return true
			})
			continue
		}
		// New assertion: substitute each position's sameAs equivalents.
		buf = src.ObjectsAppend(buf[:0], rdf.IDSameAs, t.S)
		for _, s2 := range buf {
			emit(rdf.Triple{S: s2, P: t.P, O: t.O})
		}
		if !t.O.IsLiteral() {
			buf = src.ObjectsAppend(buf[:0], rdf.IDSameAs, t.O)
			for _, o2 := range buf {
				emit(rdf.Triple{S: t.S, P: t.P, O: o2})
			}
		}
		buf = src.ObjectsAppend(buf[:0], rdf.IDSameAs, t.P)
		for _, p2 := range buf {
			emit(rdf.Triple{S: t.S, P: p2, O: t.O})
		}
	}
}

func (eqRep) Supports(src Source, t rdf.Triple) bool {
	// Every eq-rep derivation rewrites one position of a non-sameAs
	// premise u via a (a sameAs b) premise with a ≠ b (equal ends are
	// skipped, and sameAs-predicate triples are never rewritten — the
	// conclusion's rewritten-position term therefore differs from u's).
	//
	// Subject: (a sameAs t.S), (a t.P t.O) → t.
	buf := src.SubjectsAppend(nil, rdf.IDSameAs, t.S)
	for _, a := range buf {
		if a != t.S && t.P != rdf.IDSameAs &&
			src.Contains(rdf.Triple{S: a, P: t.P, O: t.O}) {
			return true
		}
	}
	// Object: (b sameAs t.O), (t.S t.P b) → t, b not a literal.
	buf = src.SubjectsAppend(buf[:0], rdf.IDSameAs, t.O)
	for _, b := range buf {
		if b != t.O && t.P != rdf.IDSameAs && !b.IsLiteral() &&
			src.Contains(rdf.Triple{S: t.S, P: t.P, O: b}) {
			return true
		}
	}
	// Predicate: (q sameAs t.P), (t.S q t.O) → t, q not sameAs itself.
	buf = src.SubjectsAppend(buf[:0], rdf.IDSameAs, t.P)
	for _, q := range buf {
		if q != t.P && q != rdf.IDSameAs &&
			src.Contains(rdf.Triple{S: t.S, P: q, O: t.O}) {
			return true
		}
	}
	return false
}

// OWL-rule constructors.

// PrpSymp returns the symmetric-property rule.
func PrpSymp() Rule { return prpSymp{} }

// PrpTrp returns the transitive-property rule.
func PrpTrp() Rule { return prpTrp{} }

// PrpInv returns the inverse-property rule.
func PrpInv() Rule { return prpInv{} }

// PrpEqp returns the equivalent-property rule.
func PrpEqp() Rule { return prpEqp{} }

// CaxEqc returns the equivalent-class membership rule.
func CaxEqc() Rule { return caxEqc{} }

// ScmEqc returns the equivalentClass→subClassOf schema rule.
func ScmEqc() Rule { return scmEqc{} }

// ScmEqp returns the equivalentProperty→subPropertyOf schema rule.
func ScmEqp() Rule { return scmEqp{} }

// EqSymTrans returns the sameAs symmetry/transitivity rule.
func EqSymTrans() Rule { return eqSymTrans{} }

// EqRep returns the sameAs replacement rule. Note: materialising sameAs
// replacement can square the size of dense equivalence clusters; keep
// clusters small or leave this rule out of custom fragments.
func EqRep() Rule { return eqRep{} }

// OWLHorst returns the OWL-Horst-style fragment: RDFS plus the property
// characteristic, equivalence and sameAs rules.
func OWLHorst() []Rule {
	return append(RDFS(),
		PrpSymp(), PrpTrp(), PrpInv(), PrpEqp(),
		CaxEqc(), ScmEqc(), ScmEqp(),
		EqSymTrans(), EqRep(),
	)
}
