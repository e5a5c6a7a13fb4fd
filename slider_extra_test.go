package slider

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestSelectOverInferredKnowledge(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("Dog"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	mustAdd(t, r, NewStatement(ex("rex"), IRI(Type), ex("Dog")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Label), Literal("Felix")))
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// All animals — only answerable through the inferred type triples.
	rows, err := r.Select(`SELECT ?x WHERE { ?x a <http://example.org/Animal> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("animals = %v", rows)
	}

	// Join across inferred typing and explicit label.
	rows, err = r.Select(`
		SELECT ?name WHERE {
			?x a <http://example.org/Animal> .
			?x rdfs:label ?name .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["name"].Value != "Felix" {
		t.Fatalf("rows = %v", rows)
	}

	// Parse errors surface.
	if _, err := r.Select(`SELECT bogus`); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestLoadSnapshotKeepsExplicitness reloads a snapshot with retraction
// enabled and retracts through it: the reloaded reasoner must know which
// statements were asserted, so retracting one removes it with its
// consequences, while retracting a statement that was only inferred
// does nothing.
func TestLoadSnapshotKeepsExplicitness(t *testing.T) {
	ctx := context.Background()
	r := New(RDFS)
	asserted := NewStatement(ex("a"), IRI(Type), ex("C"))
	mustAdd(t, r, NewStatement(ex("C"), IRI(SubClassOf), ex("D")))
	mustAdd(t, r, asserted)
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}

	r2, err := LoadSnapshot(RDFS, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	inferred := NewStatement(ex("a"), IRI(Type), ex("D"))
	if st, err := r2.Retract(ctx, inferred); err != nil || st.Retracted != 0 || !r2.Contains(inferred) {
		t.Fatalf("retracting an inferred statement after reload: %+v, %v, still present %v", st, err, r2.Contains(inferred))
	}
	st, err := r2.Retract(ctx, asserted)
	if err != nil || st.Retracted != 1 {
		t.Fatalf("retracting an asserted statement after reload: %+v, %v", st, err)
	}
	if r2.Contains(asserted) || r2.Contains(inferred) {
		t.Fatalf("after the retraction: asserted present %v, its consequence present %v", r2.Contains(asserted), r2.Contains(inferred))
	}
}

// TestInvalidStatementIsErrInvalidStatement checks that Add and AddBatch
// refuse a statement that is not valid RDF with an error wrapping
// ErrInvalidStatement — what the serving layer maps to 400 — and that
// the refused batch adds nothing.
func TestInvalidStatementIsErrInvalidStatement(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	bad := NewStatement(Literal("x"), IRI(Type), ex("C"))
	if _, err := r.Add(bad); !errors.Is(err, ErrInvalidStatement) {
		t.Fatalf("Add = %v, want ErrInvalidStatement", err)
	}
	n, err := r.AddBatch([]Statement{NewStatement(ex("a"), IRI(Type), ex("C")), bad})
	if !errors.Is(err, ErrInvalidStatement) || n != 0 || r.Len() != 0 {
		t.Fatalf("AddBatch = %d, %v with %d triples stored; want ErrInvalidStatement and nothing added", n, err, r.Len())
	}
}

func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	r := New(RhoDF)
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	wantLen := r.Len()
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Reload: everything (including inferred triples) is back.
	r2, err := LoadSnapshot(RhoDF, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(context.Background())
	if r2.Len() != wantLen {
		t.Fatalf("reloaded %d triples, want %d", r2.Len(), wantLen)
	}
	if !r2.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("inferred triple lost across snapshot")
	}

	// The reloaded store is live background knowledge: new data joins
	// against it.
	mustAdd(t, r2, NewStatement(ex("Animal"), IRI(SubClassOf), ex("Being")))
	if err := r2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r2.Contains(NewStatement(ex("felix"), IRI(Type), ex("Being"))) {
		t.Fatal("background knowledge did not join with new stream")
	}
}

func TestExportTurtleRoundTrip(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.ExportTurtle(&buf, map[string]string{"ex": "http://example.org/"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ex:felix a ex:Cat") && !strings.Contains(out, "ex:felix a ex:Animal") {
		t.Fatalf("turtle export missing grouped subject:\n%s", out)
	}
	// Reload through the Turtle reader: same knowledge base.
	r2 := New(RhoDF)
	defer r2.Close(context.Background())
	if _, err := r2.LoadTurtle(strings.NewReader(out)); err != nil {
		t.Fatalf("reparsing own turtle export: %v\n%s", err, out)
	}
	if err := r2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("turtle round trip: %d vs %d triples", r2.Len(), r.Len())
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot(RhoDF, strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestOWLHorstFragmentThroughFacade(t *testing.T) {
	r := New(OWLHorst, WithBufferSize(1))
	defer r.Close(context.Background())
	owlNS := "http://www.w3.org/2002/07/owl#"
	mustAdd(t, r, NewStatement(ex("partOf"), IRI(Type), IRI(owlNS+"TransitiveProperty")))
	mustAdd(t, r, NewStatement(ex("a"), ex("partOf"), ex("b")))
	mustAdd(t, r, NewStatement(ex("b"), ex("partOf"), ex("c")))
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(NewStatement(ex("a"), ex("partOf"), ex("c"))) {
		t.Fatal("transitive property not materialised via OWLHorst fragment")
	}
	if r.Fragment().Name() != "owl-horst" {
		t.Fatalf("fragment name = %s", r.Fragment().Name())
	}
}

func TestWhyThroughFacade(t *testing.T) {
	r := New(RhoDF, WithProvenance())
	defer r.Close(context.Background())
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Why(NewStatement(ex("felix"), IRI(Type), ex("Cat"))); !ok || got != ProvenanceExplicit {
		t.Fatalf("Why(explicit) = (%q, %v)", got, ok)
	}
	if got, ok := r.Why(NewStatement(ex("felix"), IRI(Type), ex("Animal"))); !ok || got != "cax-sco" {
		t.Fatalf("Why(inferred) = (%q, %v), want cax-sco", got, ok)
	}
	if _, ok := r.Why(NewStatement(ex("never"), IRI(Type), ex("seen"))); ok {
		t.Fatal("Why reported unknown statement")
	}
	// Without the option, Why is unavailable.
	r2 := New(RhoDF)
	defer r2.Close(context.Background())
	mustAdd(t, r2, NewStatement(ex("a"), IRI(Type), ex("b")))
	if _, ok := r2.Why(NewStatement(ex("a"), IRI(Type), ex("b"))); ok {
		t.Fatal("Why available without WithProvenance")
	}
}

func TestAdaptiveSchedulingOptionThroughFacade(t *testing.T) {
	r := New(RhoDF, WithAdaptiveScheduling(), WithBufferSize(2))
	defer r.Close(context.Background())
	for i := 0; i < 100; i++ {
		mustAdd(t, r, NewStatement(
			ex("s"+string(rune('a'+i%26))+string(rune('a'+i/26))),
			ex("plain"),
			ex("o")))
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	grew := false
	for _, m := range r.Stats().Modules {
		if m.CapacityGrows > 0 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("adaptive option not applied")
	}
}
