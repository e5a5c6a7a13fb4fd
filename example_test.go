package slider_test

import (
	"context"
	"fmt"
	"strings"

	slider "repro"
)

// The canonical three-line flow: stream statements in, wait for
// quiescence, check entailment.
func Example() {
	r := slider.New(slider.RhoDF)
	defer r.Close(context.Background())

	r.Add(slider.NewStatement(
		slider.IRI("http://example.org/Cat"),
		slider.IRI(slider.SubClassOf),
		slider.IRI("http://example.org/Animal")))
	r.Add(slider.NewStatement(
		slider.IRI("http://example.org/felix"),
		slider.IRI(slider.Type),
		slider.IRI("http://example.org/Cat")))
	r.Wait(context.Background())

	fmt.Println(r.Contains(slider.NewStatement(
		slider.IRI("http://example.org/felix"),
		slider.IRI(slider.Type),
		slider.IRI("http://example.org/Animal"))))
	// Output: true
}

// Parsing and inference overlap: LoadNTriples streams each parsed
// statement straight into the rule buffers.
func ExampleReasoner_LoadNTriples() {
	doc := `<http://e/a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/b> .
<http://e/b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/c> .
`
	r := slider.New(slider.RhoDF)
	defer r.Close(context.Background())
	n, _ := r.LoadNTriples(strings.NewReader(doc))
	r.Wait(context.Background())
	fmt.Println(n, r.Len())
	// Output: 2 3
}

// Turtle input with prefixes and predicate lists.
func ExampleReasoner_LoadTurtle() {
	doc := `
@prefix ex: <http://e/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:Cat rdfs:subClassOf ex:Animal .
ex:felix a ex:Cat ; rdfs:label "Felix" .
`
	r := slider.New(slider.RhoDF)
	defer r.Close(context.Background())
	n, _ := r.LoadTurtle(strings.NewReader(doc))
	r.Wait(context.Background())
	fmt.Println(n, r.Contains(slider.NewStatement(
		slider.IRI("http://e/felix"), slider.IRI(slider.Type), slider.IRI("http://e/Animal"))))
	// Output: 3 true
}

// SELECT queries run over the materialised closure, so inferred
// knowledge answers them just like explicit knowledge.
func ExampleReasoner_Select() {
	r := slider.New(slider.RhoDF)
	defer r.Close(context.Background())
	r.Add(slider.NewStatement(slider.IRI("http://e/Cat"), slider.IRI(slider.SubClassOf), slider.IRI("http://e/Animal")))
	r.Add(slider.NewStatement(slider.IRI("http://e/felix"), slider.IRI(slider.Type), slider.IRI("http://e/Cat")))
	r.Wait(context.Background())

	rows, _ := r.Select(`SELECT ?x WHERE { ?x a <http://e/Animal> . }`)
	for _, row := range rows {
		fmt.Println(row["x"].Value)
	}
	// Output: http://e/felix
}

// Retraction maintains the materialisation incrementally: consequences
// disappear with their last supporting premise.
func ExampleReasoner_Retract() {
	ctx := context.Background()
	r := slider.New(slider.RhoDF)
	defer r.Close(ctx)
	cat := slider.NewStatement(slider.IRI("http://e/felix"), slider.IRI(slider.Type), slider.IRI("http://e/Cat"))
	r.Add(slider.NewStatement(slider.IRI("http://e/Cat"), slider.IRI(slider.SubClassOf), slider.IRI("http://e/Animal")))
	r.Add(cat)
	r.Wait(ctx)

	animal := slider.NewStatement(slider.IRI("http://e/felix"), slider.IRI(slider.Type), slider.IRI("http://e/Animal"))
	fmt.Println("before:", r.Contains(animal))
	r.Retract(ctx, cat)
	fmt.Println("after:", r.Contains(animal))
	// Output:
	// before: true
	// after: false
}

// A custom fragment plugs user rules into the same machinery the
// built-in fragments use.
func ExampleCustomFragment() {
	var knows slider.ID
	mirror := &slider.CustomRule{
		RuleName: "mirror-knows",
		Fn: func(_ slider.Source, delta []slider.Triple, emit func(slider.Triple)) {
			for _, t := range delta {
				if t.P == knows {
					emit(slider.Triple{S: t.O, P: t.P, O: t.S})
				}
			}
		},
	}
	r := slider.New(slider.CustomFragment("social", mirror), slider.WithBufferSize(1))
	defer r.Close(context.Background())
	knows = r.Dictionary().Encode(slider.IRI("http://e/knows"))

	r.Add(slider.NewStatement(slider.IRI("http://e/ann"), slider.IRI("http://e/knows"), slider.IRI("http://e/bob")))
	r.Wait(context.Background())
	fmt.Println(r.Contains(slider.NewStatement(
		slider.IRI("http://e/bob"), slider.IRI("http://e/knows"), slider.IRI("http://e/ann"))))
	// Output: true
}
