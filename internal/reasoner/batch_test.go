package reasoner

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

// sameTriples reports whether a and b hold the same triples with the
// same multiplicities, in any order.
func sameTriples(a, b []rdf.Triple) bool {
	byKey := func(x, y rdf.Triple) int {
		return cmp.Or(cmp.Compare(x.P, y.P), cmp.Compare(x.S, y.S), cmp.Compare(x.O, y.O))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byKey)
	slices.SortFunc(b, byKey)
	return slices.Equal(a, b)
}

// TestAddBatchMatchesAddLoop proves the batch ingest path computes the
// same closure and the same counters as a per-triple Add loop.
func TestAddBatchMatchesAddLoop(t *testing.T) {
	input := chain(40)
	input = append(input, sp(p1, p2), rdf.T(x, p1, y))

	// Per-triple path.
	stLoop := store.New()
	eLoop := New(stLoop, rules.RhoDF(), Config{})
	for _, tr := range input {
		eLoop.Add(tr)
	}
	ctx := context.Background()
	if err := eLoop.Close(ctx); err != nil {
		t.Fatal(err)
	}
	loopStats := eLoop.Stats()

	// Batch path, duplicated input to exercise dup accounting.
	stBatch := store.New()
	eBatch := New(stBatch, rules.RhoDF(), Config{})
	fresh := eBatch.AddBatch(append(append([]rdf.Triple(nil), input...), input...))
	if len(fresh) != len(input) {
		t.Fatalf("AddBatch returned %d fresh, want %d", len(fresh), len(input))
	}
	// fresh comes back grouped by predicate, not in input order: compare
	// as multisets.
	if !sameTriples(fresh, input) {
		t.Fatalf("fresh = %v, want the input %v once each", fresh, input)
	}
	if err := eBatch.Close(ctx); err != nil {
		t.Fatal(err)
	}
	batchStats := eBatch.Stats()

	if stLoop.Len() != stBatch.Len() {
		t.Fatalf("closure size: loop %d, batch %d", stLoop.Len(), stBatch.Len())
	}
	stLoop.ForEach(func(tr rdf.Triple) bool {
		if !stBatch.Contains(tr) {
			t.Fatalf("batch closure missing %v", tr)
		}
		return true
	})
	if loopStats.Input != batchStats.Input || loopStats.Inferred != batchStats.Inferred {
		t.Fatalf("stats: loop {in=%d inf=%d}, batch {in=%d inf=%d}",
			loopStats.Input, loopStats.Inferred, batchStats.Input, batchStats.Inferred)
	}
	if batchStats.DuplicateInput != int64(len(input)) {
		t.Fatalf("DuplicateInput = %d, want %d", batchStats.DuplicateInput, len(input))
	}
}

// TestAddBatchConcurrentFeeders streams a partitioned input from many
// goroutines through AddBatch and checks quiescence and closure. Run
// with -race.
func TestAddBatchConcurrentFeeders(t *testing.T) {
	input := chain(120)
	st := store.New()
	e := New(st, rules.RhoDF(), Config{Workers: 4})
	const feeders = 6
	var wg sync.WaitGroup
	per := (len(input) + feeders - 1) / feeders
	for f := 0; f < feeders; f++ {
		lo := f * per
		hi := min(lo+per, len(input))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(chunk []rdf.Triple) {
			defer wg.Done()
			e.AddBatch(chunk)
		}(input[lo:hi])
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	assertSameClosure(t, rules.RhoDF, st, input)
	if got := e.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after Close, want 0 (batch accounting leak)", got)
	}
}

// TestAddBatchClosedEngine checks the batch path is a no-op after Close.
func TestAddBatchClosedEngine(t *testing.T) {
	st := store.New()
	e := New(st, rules.RhoDF(), Config{})
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fresh := e.AddBatch([]rdf.Triple{sc(a, b)}); fresh != nil {
		t.Fatalf("AddBatch on closed engine returned %v", fresh)
	}
	if st.Len() != 0 {
		t.Fatal("closed engine stored a triple")
	}
}
