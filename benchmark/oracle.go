package main

import (
	"context"
	"fmt"
	"hash/maphash"

	slider "repro"
	"repro/internal/baseline"
	"repro/internal/rdf"
)

// oracle checks Slider against the batch baseline, triple for triple, on
// the same generator and seed at a tenth of the workload's size, and checks
// the counting model below against the same closure. The call doubles as
// the run's warm-up.
func oracle(ctx context.Context, w workload, n int, seed int64) error {
	sts := generate(w.family, n, seed)
	r := slider.New(w.frag, slider.WithRetraction(), slider.WithViewMaxAge(-1))
	defer r.Close(ctx)
	for i := 0; i < len(sts); i += loadBatch {
		if _, err := r.AddBatch(sts[i:min(i+loadBatch, len(sts))]); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	if err := r.Wait(ctx); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	// The baseline gets its own dictionary: the two closures are compared
	// as statements, not as IDs that happen to coincide.
	dict := rdf.NewDictionary()
	ts := make([]rdf.Triple, len(sts))
	for i, st := range sts {
		ts[i] = dict.EncodeStatement(st)
	}
	ref, _, err := baseline.Closure(ctx, w.frag.Rules(), ts)
	if err != nil {
		return fmt.Errorf("oracle baseline: %w", err)
	}
	if ref.Len() != r.Len() {
		return fmt.Errorf("oracle: slider closure has %d triples, baseline %d", r.Len(), ref.Len())
	}
	var missing error
	ref.ForEach(func(t rdf.Triple) bool {
		st, ok := dict.DecodeTriple(t)
		if !ok || !r.Contains(st) {
			missing = fmt.Errorf("oracle: baseline triple %v absent from slider closure", st)
		}
		return missing == nil
	})
	if missing != nil {
		return missing
	}
	want, err := expectedClosure(sts, w.frag.Name() == "rdfs")
	if err != nil {
		return err
	}
	if want != r.Len() {
		return fmt.Errorf("oracle: counting model predicts %d triples, closure has %d", want, r.Len())
	}
	return nil
}

// expectedClosure predicts the size of the ρdf (or, with rdfs, RDFS)
// closure of a generated dataset by counting, without joining anything:
// the full-size load is checked against it, and every run checks the model
// itself against the baseline reasoner at a tenth of the size (oracle).
//
// The model covers what the generators emit — subClassOf and subPropertyOf
// hierarchies, typed instances, no domain/range and no rdf:Property,
// rdfs:Datatype or container-membership declarations — and refuses
// anything else:
//
//	subClassOf     transitive closure of the explicit edges; under RDFS
//	               every declared class is also below itself and below
//	               rdfs:Resource, and so is every class with one above it
//	subPropertyOf  transitive closure
//	type           every explicit (x type c) plus one per proper ancestor
//	               of c; under RDFS one (x type Resource) per distinct
//	               subject or non-literal object
//	other          every explicit (x p y) plus one per proper ancestor of p
func expectedClosure(sts []rdf.Statement, rdfs bool) (int, error) {
	var seed = maphash.MakeSeed()
	key := func(parts ...rdf.Term) uint64 {
		var h maphash.Hash
		h.SetSeed(seed)
		for _, t := range parts {
			h.WriteByte(byte(t.Kind))
			h.WriteString(t.Value)
			h.WriteByte(0)
			h.WriteString(t.Lang)
			h.WriteByte(0)
			h.WriteString(t.Datatype)
			h.WriteByte(0)
		}
		return h.Sum64()
	}
	seen := make(map[uint64]struct{}, len(sts))
	resources := make(map[uint64]struct{}, len(sts)/2)
	super := map[string]map[rdf.Term][]rdf.Term{rdf.IRISubClassOf: {}, rdf.IRISubPropertyOf: {}}
	declared := map[rdf.Term]bool{}
	typed := map[rdf.Term]int{}    // class → explicit instances
	asserted := map[rdf.Term]int{} // predicate → explicit triples
	other := 0
	for _, st := range sts {
		k := key(st.S, st.P, st.O)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		switch st.P.Value {
		case rdf.IRIDomain, rdf.IRIRange:
			return 0, fmt.Errorf("closure model: %s is outside what it counts", st.P.Value)
		}
		resources[key(st.S)] = struct{}{}
		if !st.O.IsLiteral() {
			resources[key(st.O)] = struct{}{}
		}
		switch st.P.Value {
		case rdf.IRISubClassOf, rdf.IRISubPropertyOf:
			super[st.P.Value][st.S] = append(super[st.P.Value][st.S], st.O)
		case rdf.IRIType:
			switch st.O.Value {
			case rdf.IRIProperty, rdf.IRIDatatype, rdf.IRIContainerMembershipProp, rdf.IRIResource:
				return 0, fmt.Errorf("closure model: type %s is outside what it counts", st.O.Value)
			case rdf.IRIClass:
				declared[st.S] = true
			}
			typed[st.O]++
		default:
			other++
			asserted[st.P]++
		}
	}

	// ancestors memoises the proper ancestors of a node in one hierarchy.
	ancestors := func(edges map[rdf.Term][]rdf.Term) func(rdf.Term) map[rdf.Term]bool {
		memo := map[rdf.Term]map[rdf.Term]bool{}
		var up func(rdf.Term) map[rdf.Term]bool
		up = func(c rdf.Term) map[rdf.Term]bool {
			if a, ok := memo[c]; ok {
				return a
			}
			a := map[rdf.Term]bool{}
			memo[c] = a // a cycle would end here; the generators emit none
			for _, p := range edges[c] {
				a[p] = true
				for q := range up(p) {
					a[q] = true
				}
			}
			return a
		}
		return up
	}
	upClass, upProp := ancestors(super[rdf.IRISubClassOf]), ancestors(super[rdf.IRISubPropertyOf])

	total := other
	for p, n := range asserted {
		total += n * len(upProp(p))
	}
	for p := range super[rdf.IRISubPropertyOf] {
		total += len(upProp(p))
	}
	belowResource := map[rdf.Term]bool{}
	for c := range declared {
		belowResource[c] = true
	}
	for c := range super[rdf.IRISubClassOf] {
		up := upClass(c)
		total += len(up)
		for a := range up {
			if declared[a] {
				belowResource[c] = true
			}
		}
	}
	for c, n := range typed {
		total += n * (1 + len(upClass(c)))
	}
	if rdfs && len(sts) > 0 {
		resources[key(rdf.NewIRI(rdf.IRIResource))] = struct{}{}
		total += len(resources)     // (x type Resource)
		total += len(belowResource) // (c subClassOf Resource)
		for c := range declared {   // (c subClassOf c), unless a cycle already said so
			if !upClass(c)[c] {
				total++
			}
		}
	}
	return total, nil
}
