// Package rules implements the inference rules of the ρdf and RDFS
// fragments, the Rule abstraction that lets Slider stay fragment-agnostic,
// and the rules dependency graph the engine builds at initialisation
// (paper §2.1 and §2.3).
//
// Every rule is a forward-chaining production: its Apply method joins a
// delta (newly arrived triples) against a triple source in both
// directions, exactly as the paper's Algorithm 1 does for cax-sco. A rule
// never needs to join the delta against itself because the engine inserts
// incoming triples into the store *before* routing them to rule buffers,
// so the source always contains the delta at application time.
//
// Rules read through the Source interface rather than the concrete store:
// the engine applies them against the live *store.Store, while the
// maintenance subsystem applies the same join logic against frozen
// store views (and suspect-masked wrappers of either) to run
// delete-and-rederive without stalling writers.
package rules

import (
	"repro/internal/rdf"
	"repro/internal/store"
)

// AnyPredicate marks, in a rule's Outputs signature, that the rule can
// produce triples with arbitrary predicates (e.g. prp-spo1).
const AnyPredicate = rdf.Any

// Source is the read face a rule joins against: the pattern-indexed
// probes of the vertically partitioned store. A frozen *store.View is
// one immutable root of the store, and every read of the live
// *store.Store is the same read of its current root; both satisfy
// Source, so the same rule code runs on the hot inference path and
// against frozen snapshots.
//
// Each question has one form. An extent probe is sorted and appends
// into a caller-owned dst, so a join reuses one scratch buffer across
// its delta. A backward Supports check walks the premise side bounded
// by the suspect (cax-sco walks the suspect subject's own types) and
// asks Contains of the other premise: the unbounded side — every
// subclass of rdfs:Resource, say — is never read.
type Source interface {
	// Contains reports whether the exact triple is present.
	Contains(t rdf.Triple) bool
	// ObjectsAppend appends the objects o with (s, p, o) present to dst,
	// in ascending ID order, and returns the extended slice.
	ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID
	// SubjectsAppend appends the subjects s with (s, p, o) present to
	// dst, in ascending ID order, and returns the extended slice.
	SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID
	// ForEachWithPredicate calls f for every (s, o) pair of the
	// predicate until f returns false.
	ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool)
	// ForEach calls f for every triple until f returns false.
	ForEach(f func(rdf.Triple) bool)
	// Predicates returns all predicates present, in ascending ID order.
	Predicates() []rdf.ID
}

// Both faces of the store satisfy Source.
var (
	_ Source = (*store.Store)(nil)
	_ Source = (*store.View)(nil)
)

// Rule is one inference rule, mapped by the engine onto one independent
// rule module with its own buffer and distributor.
type Rule interface {
	// Name returns the rule's identifier, using the OWL 2 RL profile
	// naming (cax-sco, scm-sco, …) or the RDF Semantics naming (rdfs8).
	Name() string

	// Inputs returns the predicate IDs of triples the rule consumes. A
	// nil slice means universal input: the rule must see every triple
	// (paper Figure 2's "Universal Input" rules).
	Inputs() []rdf.ID

	// Outputs returns the predicate IDs of triples the rule can produce.
	// AnyPredicate means the rule can produce arbitrary predicates.
	Outputs() []rdf.ID

	// Apply joins delta against src and calls emit for every derived
	// triple (duplicates allowed; the store deduplicates downstream).
	// Apply must not mutate src: it runs concurrently with other rule
	// instances holding read access.
	Apply(src Source, delta []rdf.Triple, emit func(rdf.Triple))
}

// Supporter is the targeted backward face of a rule: where Apply asks
// "what does this delta derive", Supports asks "is this one triple
// derivable in a single step from premises present in src". It is the
// primitive behind suspect-local delete-and-rederive: after overdeletion,
// each suspect is probed for an alternative derivation grounded outside
// the suspect set (the caller masks suspects out of src), so retraction
// cost scales with the suspects, not the store.
//
// Supports must be exact with respect to Apply: it returns true if and
// only if some instantiation of the rule with all premises in src
// concludes t. An over-approximation resurrects triples that lost their
// last derivation; an under-approximation deletes triples that still
// have one.
type Supporter interface {
	Supports(src Source, t rdf.Triple) bool
}

// CanSupport reports whether r can answer Supports queries. All built-in
// rules can; a CustomRule can when its SupportsFn is set.
func CanSupport(r Rule) bool {
	if c, ok := r.(*CustomRule); ok {
		return c.SupportsFn != nil
	}
	_, ok := r.(Supporter)
	return ok
}

// AllSupport reports whether every rule of the set can answer Supports
// queries — the gate for the suspect-local retraction path. A set with
// any non-supporting rule falls back to full-store rederivation.
func AllSupport(ruleset []Rule) bool {
	for _, r := range ruleset {
		if !CanSupport(r) {
			return false
		}
	}
	return true
}

// Supported reports whether any rule of the set derives t in one step
// from premises in src. Callers must have checked AllSupport; rules
// without a Supports face are skipped (treated as deriving nothing).
func Supported(ruleset []Rule, src Source, t rdf.Triple) bool {
	for _, r := range ruleset {
		if s, ok := r.(Supporter); ok && s.Supports(src, t) {
			return true
		}
	}
	return false
}

// Names returns the names of a ruleset, in order.
func Names(ruleset []Rule) []string {
	out := make([]string, len(ruleset))
	for i, r := range ruleset {
		out[i] = r.Name()
	}
	return out
}

// ByName returns the rule with the given name, or nil.
func ByName(ruleset []Rule, name string) Rule {
	for _, r := range ruleset {
		if r.Name() == name {
			return r
		}
	}
	return nil
}
