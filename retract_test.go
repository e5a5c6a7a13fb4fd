package slider

import (
	"context"
	"strings"
	"testing"
)

func TestRetractThroughFacade(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Mammal")))
	mustAdd(t, r, NewStatement(ex("Mammal"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("precondition: inference incomplete")
	}

	stats, err := r.Retract(context.Background(), NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retracted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	for _, gone := range []Statement{
		NewStatement(ex("felix"), IRI(Type), ex("Cat")),
		NewStatement(ex("felix"), IRI(Type), ex("Mammal")),
		NewStatement(ex("felix"), IRI(Type), ex("Animal")),
	} {
		if r.Contains(gone) {
			t.Errorf("still contains %v", gone)
		}
	}
	// The schema survives.
	if !r.Contains(NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal"))) {
		t.Fatal("schema closure lost")
	}

	// The reasoner stays live: re-adding restores the inferences.
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("re-added data not re-inferred")
	}
}

// TestRetractWithoutOption checks that a reasoner built without any
// option retracts an asserted statement and its consequences: the
// store records which triples were asserted whatever the options.
func TestRetractWithoutOption(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	ctx := context.Background()
	felix := NewStatement(ex("felix"), IRI(Type), ex("Cat"))
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, felix)
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Retract(ctx, felix)
	if err != nil || stats.Retracted != 1 {
		t.Fatalf("Retract = %+v, %v; want 1 retracted", stats, err)
	}
	if r.Contains(felix) || r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("the retracted statement or its consequence survived")
	}
}

func TestRetractUnknownStatement(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	stats, err := r.Retract(context.Background(), NewStatement(ex("never"), IRI(Type), ex("seen")))
	if err != nil || stats.Retracted != 0 {
		t.Fatalf("stats = %+v, err = %v", stats, err)
	}
}

func TestLoadThenRetractKeepsAlternatives(t *testing.T) {
	doc := `<http://example.org/a> <` + SubClassOf + `> <http://example.org/b> .
<http://example.org/b> <` + SubClassOf + `> <http://example.org/c> .
<http://example.org/a> <` + SubClassOf + `> <http://example.org/e> .
<http://example.org/e> <` + SubClassOf + `> <http://example.org/c> .
`
	r := New(RhoDF)
	defer r.Close(context.Background())
	if _, err := r.LoadNTriples(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retract(context.Background(), NewStatement(ex("a"), IRI(SubClassOf), ex("b"))); err != nil {
		t.Fatal(err)
	}
	// (a sc c) still derivable via e.
	if !r.Contains(NewStatement(ex("a"), IRI(SubClassOf), ex("c"))) {
		t.Fatal("alternative derivation lost")
	}
	// But (a sc b) is gone.
	if r.Contains(NewStatement(ex("a"), IRI(SubClassOf), ex("b"))) {
		t.Fatal("retracted statement still present")
	}
}
