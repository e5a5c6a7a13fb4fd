package rules

import (
	"repro/internal/rdf"
)

// This file implements the eight rules of the ρdf fragment (Muñoz, Pérez,
// Gutierrez: "Minimal deductive systems for RDF") exactly as the paper's
// Figure 2 lays them out, using the OWL 2 RL profile rule names:
//
//	scm-sco   (c1 sc c2), (c2 sc c3)   → (c1 sc c3)
//	scm-spo   (p1 sp p2), (p2 sp p3)   → (p1 sp p3)
//	cax-sco   (c1 sc c2), (x type c1)  → (x type c2)
//	prp-spo1  (p1 sp p2), (x p1 y)     → (x p2 y)        [universal input]
//	prp-dom   (p dom c),  (x p y)      → (x type c)      [universal input]
//	prp-rng   (p rng c),  (x p y)      → (y type c)      [universal input]
//	scm-dom2  (p2 dom c), (p1 sp p2)   → (p1 dom c)
//	scm-rng2  (p2 rng c), (p1 sp p2)   → (p1 rng c)
//
// Each rule carries both directions of the production: Apply joins a
// delta forward against a Source, and Supports answers the targeted
// backward question "is this triple derivable in one step from premises
// in the source" — the primitive suspect-local retraction is built on.

// transitiveRule implements (a p b), (b p c) → (a p c) for a fixed
// predicate p; instantiated as scm-sco and scm-spo.
type transitiveRule struct {
	name string
	pred rdf.ID
}

func (r *transitiveRule) Name() string      { return r.name }
func (r *transitiveRule) Inputs() []rdf.ID  { return []rdf.ID{r.pred} }
func (r *transitiveRule) Outputs() []rdf.ID { return []rdf.ID{r.pred} }

func (r *transitiveRule) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	// buf is reused across the delta's probes (append-style readers) so
	// the join does not allocate one slice per triple.
	var buf []rdf.ID
	for _, t := range delta {
		if t.P != r.pred {
			continue
		}
		// delta (a,b) joins source (b,c): derive (a,c).
		buf = src.ObjectsAppend(buf[:0], r.pred, t.O)
		for _, c := range buf {
			emit(rdf.Triple{S: t.S, P: r.pred, O: c})
		}
		// source (z,a) joins delta (a,b): derive (z,b).
		buf = src.SubjectsAppend(buf[:0], r.pred, t.S)
		for _, z := range buf {
			emit(rdf.Triple{S: z, P: r.pred, O: t.O})
		}
	}
}

func (r *transitiveRule) Supports(src Source, t rdf.Triple) bool {
	if t.P != r.pred {
		return false
	}
	// ∃ b: (t.S pred b), (b pred t.O). Walk t.S's side, bounded by the
	// suspect; t.O's side can be the whole hierarchy (every class is a
	// subclass of rdfs:Resource).
	for _, b := range src.ObjectsAppend(nil, r.pred, t.S) {
		if src.Contains(rdf.Triple{S: b, P: r.pred, O: t.O}) {
			return true
		}
	}
	return false
}

// caxSco implements cax-sco (paper Algorithm 1).
type caxSco struct{}

func (caxSco) Name() string      { return "cax-sco" }
func (caxSco) Inputs() []rdf.ID  { return []rdf.ID{rdf.IDSubClassOf, rdf.IDType} }
func (caxSco) Outputs() []rdf.ID { return []rdf.ID{rdf.IDType} }

func (caxSco) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		switch t.P {
		case rdf.IDSubClassOf:
			// delta (c1 sc c2) joins source (x type c1): derive (x type c2).
			buf = src.SubjectsAppend(buf[:0], rdf.IDType, t.S)
			for _, x := range buf {
				emit(rdf.Triple{S: x, P: rdf.IDType, O: t.O})
			}
		case rdf.IDType:
			// delta (x type c1) joins source (c1 sc c2): derive (x type c2).
			buf = src.ObjectsAppend(buf[:0], rdf.IDSubClassOf, t.O)
			for _, c2 := range buf {
				emit(rdf.Triple{S: t.S, P: rdf.IDType, O: c2})
			}
		}
	}
}

func (caxSco) Supports(src Source, t rdf.Triple) bool {
	if t.P != rdf.IDType {
		return false
	}
	// ∃ c1: (t.S type c1), (c1 sc t.O). Walk t.S's own types; the
	// subclasses of t.O can be every class.
	for _, c1 := range src.ObjectsAppend(nil, rdf.IDType, t.S) {
		if src.Contains(rdf.Triple{S: c1, P: rdf.IDSubClassOf, O: t.O}) {
			return true
		}
	}
	return false
}

// prpSpo1 implements prp-spo1. It has universal input: any triple (x p y)
// can be its second premise.
type prpSpo1 struct{}

func (prpSpo1) Name() string      { return "prp-spo1" }
func (prpSpo1) Inputs() []rdf.ID  { return nil }
func (prpSpo1) Outputs() []rdf.ID { return []rdf.ID{AnyPredicate} }

func (prpSpo1) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		if t.P == rdf.IDSubPropertyOf {
			// delta (p1 sp p2) joins source extent of p1: derive (x p2 y).
			p2 := t.O
			src.ForEachWithPredicate(t.S, func(x, y rdf.ID) bool {
				emit(rdf.Triple{S: x, P: p2, O: y})
				return true
			})
		}
		// delta (x p y) joins source (p sp p2): derive (x p2 y).
		// This branch also applies when t.P == sp (sp itself may have
		// super-properties).
		buf = src.ObjectsAppend(buf[:0], rdf.IDSubPropertyOf, t.P)
		for _, p2 := range buf {
			if p2 != t.P { // (p sp p) would only re-derive the input
				emit(rdf.Triple{S: t.S, P: p2, O: t.O})
			}
		}
	}
}

func (prpSpo1) Supports(src Source, t rdf.Triple) bool {
	// ∃ p1: (p1 sp t.P), (t.S p1 t.O). p1 == t.P would make the premise
	// the conclusion itself — a self-derivation, never a real support.
	for _, p1 := range src.SubjectsAppend(nil, rdf.IDSubPropertyOf, t.P) {
		if p1 != t.P && src.Contains(rdf.Triple{S: t.S, P: p1, O: t.O}) {
			return true
		}
	}
	return false
}

// prpDomRng implements prp-dom and prp-rng, parameterised by the schema
// predicate (domain or range) and which end of the assertion gets typed.
type prpDomRng struct {
	name   string
	schema rdf.ID // rdf.IDDomain or rdf.IDRange
	object bool   // false: type the subject (dom); true: type the object (rng)
}

func (r *prpDomRng) Name() string      { return r.name }
func (r *prpDomRng) Inputs() []rdf.ID  { return nil }
func (r *prpDomRng) Outputs() []rdf.ID { return []rdf.ID{rdf.IDType} }

func (r *prpDomRng) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		if t.P == r.schema {
			// delta (p dom c) joins the source extent of p.
			c := t.O
			src.ForEachWithPredicate(t.S, func(x, y rdf.ID) bool {
				target := x
				if r.object {
					target = y
				}
				if !target.IsLiteral() {
					emit(rdf.Triple{S: target, P: rdf.IDType, O: c})
				}
				return true
			})
		}
		// delta (x p y) joins source (p dom c).
		buf = src.ObjectsAppend(buf[:0], r.schema, t.P)
		for _, c := range buf {
			target := t.S
			if r.object {
				target = t.O
			}
			if !target.IsLiteral() {
				emit(rdf.Triple{S: target, P: rdf.IDType, O: c})
			}
		}
	}
}

func (r *prpDomRng) Supports(src Source, t rdf.Triple) bool {
	if t.P != rdf.IDType || t.S.IsLiteral() {
		return false
	}
	// ∃ p: (p schema t.O) and an extent triple of p with t.S at the
	// typed end: (t.S p y) for dom, (x p t.S) for rng.
	var buf []rdf.ID
	for _, p := range src.SubjectsAppend(nil, r.schema, t.O) {
		if r.object {
			buf = src.SubjectsAppend(buf[:0], p, t.S)
		} else {
			buf = src.ObjectsAppend(buf[:0], p, t.S)
		}
		if len(buf) > 0 {
			return true
		}
	}
	return false
}

// scmDomRng2 implements scm-dom2 / scm-rng2:
// (p2 schema c), (p1 sp p2) → (p1 schema c).
type scmDomRng2 struct {
	name   string
	schema rdf.ID
}

func (r *scmDomRng2) Name() string      { return r.name }
func (r *scmDomRng2) Inputs() []rdf.ID  { return []rdf.ID{r.schema, rdf.IDSubPropertyOf} }
func (r *scmDomRng2) Outputs() []rdf.ID { return []rdf.ID{r.schema} }

func (r *scmDomRng2) Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	var buf []rdf.ID
	for _, t := range delta {
		switch t.P {
		case r.schema:
			// delta (p2 schema c) joins source (p1 sp p2).
			buf = src.SubjectsAppend(buf[:0], rdf.IDSubPropertyOf, t.S)
			for _, p1 := range buf {
				emit(rdf.Triple{S: p1, P: r.schema, O: t.O})
			}
		case rdf.IDSubPropertyOf:
			// delta (p1 sp p2) joins source (p2 schema c).
			buf = src.ObjectsAppend(buf[:0], r.schema, t.O)
			for _, c := range buf {
				emit(rdf.Triple{S: t.S, P: r.schema, O: c})
			}
		}
	}
}

func (r *scmDomRng2) Supports(src Source, t rdf.Triple) bool {
	if t.P != r.schema {
		return false
	}
	// ∃ p2: (t.S sp p2), (p2 schema t.O). Walk t.S's super-properties.
	for _, p2 := range src.ObjectsAppend(nil, rdf.IDSubPropertyOf, t.S) {
		if src.Contains(rdf.Triple{S: p2, P: r.schema, O: t.O}) {
			return true
		}
	}
	return false
}

// Constructors for the individual ρdf rules. Exposed so custom fragments
// can be assembled rule by rule.

// ScmSco returns the subClassOf transitivity rule.
func ScmSco() Rule { return &transitiveRule{name: "scm-sco", pred: rdf.IDSubClassOf} }

// ScmSpo returns the subPropertyOf transitivity rule.
func ScmSpo() Rule { return &transitiveRule{name: "scm-spo", pred: rdf.IDSubPropertyOf} }

// CaxSco returns the class-membership propagation rule.
func CaxSco() Rule { return caxSco{} }

// PrpSpo1 returns the property-assertion propagation rule.
func PrpSpo1() Rule { return prpSpo1{} }

// PrpDom returns the domain typing rule.
func PrpDom() Rule { return &prpDomRng{name: "prp-dom", schema: rdf.IDDomain, object: false} }

// PrpRng returns the range typing rule.
func PrpRng() Rule { return &prpDomRng{name: "prp-rng", schema: rdf.IDRange, object: true} }

// ScmDom2 returns the domain propagation rule over subPropertyOf.
func ScmDom2() Rule { return &scmDomRng2{name: "scm-dom2", schema: rdf.IDDomain} }

// ScmRng2 returns the range propagation rule over subPropertyOf.
func ScmRng2() Rule { return &scmDomRng2{name: "scm-rng2", schema: rdf.IDRange} }

// RhoDF returns the ρdf fragment: the eight rules of Figure 2.
func RhoDF() []Rule {
	return []Rule{
		ScmSco(),
		ScmSpo(),
		CaxSco(),
		PrpSpo1(),
		PrpDom(),
		PrpRng(),
		ScmDom2(),
		ScmRng2(),
	}
}
