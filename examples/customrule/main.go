// Customrule: the paper's "Fragment's Customization" feature — Slider is
// fragment agnostic, and new rules plug in through the same interface the
// built-in rules use. This example extends ρdf with two OWL-flavoured
// rules (symmetric property and inverse-of) and reasons over a social
// graph.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const (
	ns  = "http://example.org/social/"
	owl = "http://www.w3.org/2002/07/owl#"
)

func iri(name string) slider.Term { return slider.IRI(ns + name) }

func main() {
	dict := make(map[string]slider.ID)

	// prp-symp: (p type SymmetricProperty), (x p y) → (y p x).
	symmetric := &slider.CustomRule{
		RuleName: "prp-symp",
		Out:      nil, // output predicate is data-dependent
		Fn: func(st slider.Source, delta []slider.Triple, emit func(slider.Triple)) {
			symProp := dict["SymmetricProperty"]
			typeID := dict["type"]
			for _, t := range delta {
				if t.P == typeID && t.O == symProp {
					// New symmetric property: mirror its whole extent.
					st.ForEachWithPredicate(t.S, func(x, y slider.ID) bool {
						emit(slider.Triple{S: y, P: t.S, O: x})
						return true
					})
					continue
				}
				if st.Contains(slider.Triple{S: t.P, P: typeID, O: symProp}) {
					emit(slider.Triple{S: t.O, P: t.P, O: t.S})
				}
			}
		},
	}

	// prp-inv: (p inverseOf q), (x p y) → (y q x) and symmetrically.
	inverse := &slider.CustomRule{
		RuleName: "prp-inv",
		Fn: func(st slider.Source, delta []slider.Triple, emit func(slider.Triple)) {
			invID := dict["inverseOf"]
			var buf []slider.ID // reused across the delta's probes
			for _, t := range delta {
				if t.P == invID {
					st.ForEachWithPredicate(t.S, func(x, y slider.ID) bool {
						emit(slider.Triple{S: y, P: t.O, O: x})
						return true
					})
					st.ForEachWithPredicate(t.O, func(x, y slider.ID) bool {
						emit(slider.Triple{S: y, P: t.S, O: x})
						return true
					})
					continue
				}
				buf = st.ObjectsAppend(buf[:0], invID, t.P)
				buf = st.SubjectsAppend(buf, invID, t.P)
				for _, q := range buf {
					emit(slider.Triple{S: t.O, P: q, O: t.S})
				}
			}
		},
	}

	frag := slider.CustomFragment("rhodf+owl-lite",
		append(slider.RhoDF.Rules(), symmetric, inverse)...)
	r := slider.New(frag, slider.WithBufferSize(1))
	defer r.Close(context.Background())

	// Pre-register the IDs the custom rules need.
	dict["type"], _ = r.Dictionary().Lookup(slider.IRI(slider.Type))
	dict["SymmetricProperty"] = r.Dictionary().Encode(slider.IRI(owl + "SymmetricProperty"))
	dict["inverseOf"] = r.Dictionary().Encode(slider.IRI(owl + "inverseOf"))

	// Schema first, data after it has settled: each data triple then
	// reaches the custom rules as a delta joined against the stored
	// schema (their probe paths), not via the schema's extent replay.
	schema := []slider.Statement{
		// knows is symmetric; hasParent inverse hasChild; and a ρdf rule
		// interleaves: closeFriend sp knows.
		slider.NewStatement(iri("knows"), slider.IRI(slider.Type), slider.IRI(owl+"SymmetricProperty")),
		slider.NewStatement(iri("hasParent"), slider.IRI(owl+"inverseOf"), iri("hasChild")),
		slider.NewStatement(iri("closeFriend"), slider.IRI(slider.SubPropertyOf), iri("knows")),
	}
	data := []slider.Statement{
		slider.NewStatement(iri("ann"), iri("closeFriend"), iri("bob")),
		slider.NewStatement(iri("carol"), iri("hasParent"), iri("ann")),
	}
	for _, batch := range [][]slider.Statement{schema, data} {
		for _, st := range batch {
			if _, err := r.Add(st); err != nil {
				log.Fatal(err)
			}
		}
		if err := r.Wait(context.Background()); err != nil {
			log.Fatal(err)
		}
	}

	checks := []slider.Statement{
		slider.NewStatement(iri("ann"), iri("knows"), iri("bob")),      // prp-spo1
		slider.NewStatement(iri("bob"), iri("knows"), iri("ann")),      // prp-symp on inferred triple
		slider.NewStatement(iri("ann"), iri("hasChild"), iri("carol")), // prp-inv
	}
	failed := 0
	for _, st := range checks {
		ok := r.Contains(st)
		fmt.Printf("%-70v %v\n", st, ok)
		if !ok {
			failed++
		}
	}

	fmt.Println("\nDependency graph includes the custom rules:")
	for _, e := range r.Graph().Edges() {
		if e[0] == "prp-symp" || e[1] == "prp-symp" || e[0] == "prp-inv" || e[1] == "prp-inv" {
			fmt.Printf("  %s -> %s\n", e[0], e[1])
		}
	}
	if failed > 0 {
		log.Fatalf("%d of %d checks failed", failed, len(checks))
	}
}
