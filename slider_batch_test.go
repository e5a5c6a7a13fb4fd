package slider

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestAddBatchFacade(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	n, err := r.AddBatch([]Statement{
		NewStatement(ex("Cat"), IRI(SubClassOf), ex("Mammal")),
		NewStatement(ex("Mammal"), IRI(SubClassOf), ex("Animal")),
		NewStatement(ex("felix"), IRI(Type), ex("Cat")),
		NewStatement(ex("felix"), IRI(Type), ex("Cat")), // duplicate
	})
	if err != nil || n != 3 {
		t.Fatalf("AddBatch = (%d, %v), want (3, nil)", n, err)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("batch-ingested triples did not reach inference")
	}
}

func TestAddBatchRejectsInvalid(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	_, err := r.AddBatch([]Statement{
		NewStatement(ex("ok"), IRI(Type), ex("Thing")),
		{S: Literal("bad subject"), P: IRI(Type), O: ex("Thing")},
	})
	if err == nil {
		t.Fatal("AddBatch accepted an invalid statement")
	}
	if r.Len() != 0 {
		t.Fatalf("invalid batch partially applied: %d triples", r.Len())
	}
}

// TestAddBatchWithRetraction checks batch-ingested statements are tracked
// as explicit assertions, so they can be retracted like Add'ed ones.
func TestAddBatchWithRetraction(t *testing.T) {
	r := New(RhoDF)
	defer r.Close(context.Background())
	if _, err := r.AddBatch([]Statement{
		NewStatement(ex("Cat"), IRI(SubClassOf), ex("Mammal")),
		NewStatement(ex("felix"), IRI(Type), ex("Cat")),
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Mammal"))) {
		t.Fatal("precondition: inference incomplete")
	}
	if _, err := r.Retract(ctx, NewStatement(ex("felix"), IRI(Type), ex("Cat"))); err != nil {
		t.Fatal(err)
	}
	if r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Mammal"))) {
		t.Fatal("retraction of batch-asserted statement left its consequence")
	}
}

// TestLoadNTriplesChunking streams more statements than one loader chunk
// and checks the count and the closure.
func TestLoadNTriplesChunking(t *testing.T) {
	var doc strings.Builder
	const classes = 700 // > loadChunkSize so multiple batches flush
	for i := 0; i < classes; i++ {
		fmt.Fprintf(&doc, "<http://e/c%d> <%s> <http://e/c%d> .\n", i, SubClassOf, i+1)
	}
	r := New(RhoDF)
	defer r.Close(context.Background())
	n, err := r.LoadNTriples(strings.NewReader(doc.String()))
	if err != nil || n != classes {
		t.Fatalf("LoadNTriples = (%d, %v), want (%d, nil)", n, err, classes)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Transitive chain: c0 ⊑ c2 must have been inferred across chunk
	// boundaries.
	if !r.Contains(NewStatement(
		IRI("http://e/c0"), IRI(SubClassOf), IRI("http://e/c2"))) {
		t.Fatal("inference missing across loader chunks")
	}
}
