package rules

import (
	"repro/internal/rdf"
)

// This file implements the RDFS entailment rules beyond ρdf, following the
// RDF Semantics rule names (rdfs4a, rdfs4b, rdfs6, rdfs8, rdfs10, rdfs12,
// rdfs13). The ρdf rules already cover rdfs2 (prp-dom), rdfs3 (prp-rng),
// rdfs5 (scm-spo), rdfs7 (prp-spo1), rdfs9 (cax-sco) and rdfs11 (scm-sco).

// classTriggerRule implements the schema-vocabulary typing rules of RDFS:
// when a delta triple (x type K) arrives for the trigger class K, emit
// (x outPred outObj), where outObj == rdf.Any means "x itself".
type classTriggerRule struct {
	name    string
	trigger rdf.ID // class K in (x type K)
	outPred rdf.ID
	outObj  rdf.ID // rdf.Any → reflexive (object = subject)
}

func (r *classTriggerRule) Name() string      { return r.name }
func (r *classTriggerRule) Inputs() []rdf.ID  { return []rdf.ID{rdf.IDType} }
func (r *classTriggerRule) Outputs() []rdf.ID { return []rdf.ID{r.outPred} }

func (r *classTriggerRule) Apply(_ Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	for _, t := range delta {
		if t.P != rdf.IDType || t.O != r.trigger {
			continue
		}
		obj := r.outObj
		if obj == rdf.Any {
			obj = t.S
		}
		emit(rdf.Triple{S: t.S, P: r.outPred, O: obj})
	}
}

func (r *classTriggerRule) Supports(src Source, t rdf.Triple) bool {
	if t.P != r.outPred {
		return false
	}
	if r.outObj == rdf.Any {
		if t.O != t.S {
			return false
		}
	} else if t.O != r.outObj {
		return false
	}
	return src.Contains(rdf.Triple{S: t.S, P: rdf.IDType, O: r.trigger})
}

// resourceTypingRule implements rdfs4a and rdfs4b together:
//
//	rdfs4a  (x p y) → (x type Resource)
//	rdfs4b  (x p y) → (y type Resource)   [y not a literal]
//
// It has universal input and is the rule responsible for the bulk of the
// RDFS closure on instance-heavy ontologies.
type resourceTypingRule struct{}

func (resourceTypingRule) Name() string      { return "rdfs4" }
func (resourceTypingRule) Inputs() []rdf.ID  { return nil }
func (resourceTypingRule) Outputs() []rdf.ID { return []rdf.ID{rdf.IDType} }

func (resourceTypingRule) Apply(_ Source, delta []rdf.Triple, emit func(rdf.Triple)) {
	for _, t := range delta {
		emit(rdf.Triple{S: t.S, P: rdf.IDType, O: rdf.IDResource})
		if !t.O.IsLiteral() {
			emit(rdf.Triple{S: t.O, P: rdf.IDType, O: rdf.IDResource})
		}
	}
}

func (resourceTypingRule) Supports(src Source, t rdf.Triple) bool {
	if t.P != rdf.IDType || t.O != rdf.IDResource {
		return false
	}
	// Supported while t.S occurs anywhere in src, as a subject or as a
	// (non-literal) object. The predicate walk is the price of the
	// rule's universal input; predicates are schema-sized in practice.
	var buf []rdf.ID
	for _, p := range src.Predicates() {
		if buf = src.ObjectsAppend(buf[:0], p, t.S); len(buf) > 0 {
			return true
		}
		if !t.S.IsLiteral() {
			if buf = src.SubjectsAppend(buf[:0], p, t.S); len(buf) > 0 {
				return true
			}
		}
	}
	return false
}

// Constructors for the individual RDFS rules.

// Rdfs4 returns the combined rdfs4a/rdfs4b resource-typing rule.
func Rdfs4() Rule { return resourceTypingRule{} }

// Rdfs6 returns (p type Property) → (p sp p).
func Rdfs6() Rule {
	return &classTriggerRule{name: "rdfs6", trigger: rdf.IDProperty,
		outPred: rdf.IDSubPropertyOf, outObj: rdf.Any}
}

// Rdfs8 returns (c type Class) → (c sc Resource).
func Rdfs8() Rule {
	return &classTriggerRule{name: "rdfs8", trigger: rdf.IDClass,
		outPred: rdf.IDSubClassOf, outObj: rdf.IDResource}
}

// Rdfs10 returns (c type Class) → (c sc c).
func Rdfs10() Rule {
	return &classTriggerRule{name: "rdfs10", trigger: rdf.IDClass,
		outPred: rdf.IDSubClassOf, outObj: rdf.Any}
}

// Rdfs12 returns (p type ContainerMembershipProperty) → (p sp member).
func Rdfs12() Rule {
	return &classTriggerRule{name: "rdfs12", trigger: rdf.IDContainerMembershipProp,
		outPred: rdf.IDSubPropertyOf, outObj: rdf.IDMember}
}

// Rdfs13 returns (d type Datatype) → (d sc Literal).
func Rdfs13() Rule {
	return &classTriggerRule{name: "rdfs13", trigger: rdf.IDDatatype,
		outPred: rdf.IDSubClassOf, outObj: rdf.IDLiteralClass}
}

// RDFSOptions tunes the RDFS ruleset composition.
type RDFSOptions struct {
	// ResourceTyping enables rdfs4a/rdfs4b. Production RDFS stores (and
	// the ruleset OWLIM-SE uses in the paper's Table 1) include it; it
	// accounts for most of the RDFS closure on instance data.
	ResourceTyping bool
}

// DefaultRDFSOptions matches the ruleset used for the paper's RDFS column.
func DefaultRDFSOptions() RDFSOptions {
	return RDFSOptions{ResourceTyping: true}
}

// RDFS returns the RDFS fragment with default options.
func RDFS() []Rule { return RDFSWith(DefaultRDFSOptions()) }

// RDFSWith returns the RDFS fragment: all of ρdf plus the RDFS schema
// rules, optionally including resource typing.
func RDFSWith(opts RDFSOptions) []Rule {
	out := RhoDF()
	out = append(out, Rdfs6(), Rdfs8(), Rdfs10(), Rdfs12(), Rdfs13())
	if opts.ResourceTyping {
		out = append(out, Rdfs4())
	}
	return out
}
