package slider

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rules"
)

// TestRetractUnderConcurrentIngest is the suspect-local retraction
// stress test (run under -race): writer goroutines stream their own
// typed members while a retractor repeatedly retracts a preloaded,
// disjoint set of type assertions, so every pass's phase A overlaps
// live ingest and phase B's validate step sees mid-pass batches. At the
// end the closure must equal exactly what a per-writer-prefix argument
// predicts: every writer triple (none were retracted) with its full
// derivation chain, every retracted member gone along with its chain,
// and the schema intact.
func TestRetractUnderConcurrentIngest(t *testing.T) {
	r := New(RhoDF, WithBufferSize(32))
	defer r.Close(context.Background())
	ctx := context.Background()

	// Schema: a three-deep subclass chain. Retracting (x type C0)
	// suspects exactly x's chain types.
	cls := func(i int) Term { return ex(fmt.Sprintf("C%d", i)) }
	for i := 0; i < 3; i++ {
		mustAdd(t, r, NewStatement(cls(i), IRI(SubClassOf), cls(i+1)))
	}

	// Preload the retractor's victims.
	const victims = 40
	pre := make([]Statement, victims)
	for i := range pre {
		pre[i] = NewStatement(ex(fmt.Sprintf("victim%d", i)), IRI(Type), cls(0))
	}
	if _, err := r.AddBatch(pre); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 3
		batches = 30
		batch   = 32
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				sts := make([]Statement, batch)
				for i := range sts {
					sts[i] = NewStatement(
						ex(fmt.Sprintf("w%d_m%d_%d", w, b, i)), IRI(Type), cls(0))
				}
				if _, err := r.AddBatch(sts); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Retractor: retract each victim in small batches, concurrently with
	// the writers. Victims are never re-asserted, so the expected final
	// state is exact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < victims; i += 4 {
			if _, err := r.Retract(ctx, pre[i:i+4]...); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Per-writer-prefix closure consistency: every writer member carries
	// its full chain; every victim and its chain is gone; the schema
	// closure survives.
	for w := 0; w < writers; w++ {
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				m := ex(fmt.Sprintf("w%d_m%d_%d", w, b, i))
				for c := 0; c <= 3; c++ {
					if !r.Contains(NewStatement(m, IRI(Type), cls(c))) {
						t.Fatalf("writer member w%d_m%d_%d lost (type C%d)", w, b, i, c)
					}
				}
			}
		}
	}
	for i := 0; i < victims; i++ {
		for c := 0; c <= 3; c++ {
			if r.Contains(NewStatement(ex(fmt.Sprintf("victim%d", i)), IRI(Type), cls(c))) {
				t.Fatalf("victim%d still typed C%d after retraction", i, c)
			}
		}
	}
	if !r.Contains(NewStatement(cls(0), IRI(SubClassOf), cls(3))) {
		t.Fatal("schema closure lost")
	}
	// Exactly the expected store size: schema closure (3 asserted + 3
	// derived) plus 4 types per surviving member.
	want := 6 + writers*batches*batch*4
	if r.Len() != want {
		t.Fatalf("store has %d triples, want %d", r.Len(), want)
	}
	if last, ok := r.LastRetract(); !ok || !last.TwoPhase {
		t.Fatalf("expected two-phase retraction stats, got %+v ok=%v", last, ok)
	}
}

// newSymKnowsReasoner builds a reasoner over ρdf plus a symmetric-knows
// CustomRule with no SupportsFn, so Retract must take the classic
// full-rederive path.
func newSymKnowsReasoner(opts ...Option) *Reasoner {
	var knows ID
	sym := &CustomRule{
		RuleName: "sym-knows",
		Out:      []ID{rules.AnyPredicate},
		Fn: func(_ Source, delta []Triple, emit func(Triple)) {
			for _, t := range delta {
				if t.P == knows {
					emit(Triple{S: t.O, P: t.P, O: t.S})
				}
			}
		},
	}
	r := New(CustomFragment("rhodf+sym-knows", append(RhoDF.Rules(), sym)...), opts...)
	knows = r.Dictionary().Encode(ex("knows"))
	return r
}

// TestClassicRetractUnderConcurrentIngest drives the classic-DRed
// fallback of Retract (a ruleset with a CustomRule lacking SupportsFn)
// while writer goroutines stream AddBatch calls. Every pass must report
// TwoPhase false, the writers must finish (the whole pass runs inside
// the exclusive window, so a lost wake-up shows as a hang), and the
// final closure must equal a rebuild from the surviving explicit
// statements.
func TestClassicRetractUnderConcurrentIngest(t *testing.T) {
	r := newSymKnowsReasoner(WithBufferSize(32))
	defer r.Close(context.Background())
	ctx := context.Background()

	knows := ex("knows")
	explicit := []Statement{
		NewStatement(knows, IRI(Domain), ex("Person")),
		NewStatement(ex("Person"), IRI(SubClassOf), ex("Agent")),
	}
	const victims = 24
	pre := make([]Statement, victims)
	for i := range pre {
		pre[i] = NewStatement(ex(fmt.Sprintf("victim%d", i)), knows, ex(fmt.Sprintf("peer%d", i)))
	}
	// Every second peer is also known by a friend, so its types survive
	// the victim's retraction only if the pass rederives them.
	for i := 0; i < victims; i += 2 {
		explicit = append(explicit, NewStatement(ex(fmt.Sprintf("friend%d", i)), knows, ex(fmt.Sprintf("peer%d", i))))
	}
	if _, err := r.AddBatch(append(explicit, pre...)); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 3
		batches = 20
		batch   = 16
	)
	written := make([][]Statement, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				sts := make([]Statement, batch)
				for i := range sts {
					sts[i] = NewStatement(ex(fmt.Sprintf("w%d_%d_%d", w, b, i)), knows, ex(fmt.Sprintf("w%d_%d_%d", w, b, i+1)))
				}
				if _, err := r.AddBatch(sts); err != nil {
					errs <- err
					return
				}
				written[w] = append(written[w], sts...)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < victims; i += 4 {
			stats, err := r.Retract(ctx, pre[i:i+4]...)
			if err != nil {
				errs <- err
				return
			}
			if stats.TwoPhase || stats.Retracted != 4 {
				errs <- fmt.Errorf("retraction %d: want a classic pass of 4, got %+v", i/4, stats)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("writers and retractor did not finish")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if last, ok := r.LastRetract(); !ok || last.TwoPhase {
		t.Fatalf("want classic retraction stats, got %+v ok=%v", last, ok)
	}

	for _, sts := range written {
		explicit = append(explicit, sts...)
	}
	rebuilt := newSymKnowsReasoner(WithBufferSize(32))
	defer rebuilt.Close(ctx)
	if _, err := rebuilt.AddBatch(explicit); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r), closureSet(rebuilt), "closure vs rebuild from the surviving explicit set")
	if r.Contains(NewStatement(ex("peer0"), knows, ex("victim0"))) {
		t.Fatal("custom-rule consequence of a retracted statement survived")
	}
	if !r.Contains(NewStatement(ex("peer0"), IRI(Type), ex("Agent"))) {
		t.Fatal("consequence with a surviving derivation was not rederived")
	}
}

// TestDurableRetractCancelStaysHealthy pins the shrunk poison window: a
// cancellation during the read-only phases of a durable retraction
// leaves the knowledge base healthy — no sticky error, writes still
// accepted, nothing half-applied, and the state survives a reopen.
func TestDurableRetractCancelStaysHealthy(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RhoDF)
	if err != nil {
		t.Fatal(err)
	}
	// A chain long enough that overdeletion has rounds to get cancelled
	// in.
	const n = 120
	sts := make([]Statement, n)
	for i := range sts {
		sts[i] = NewStatement(ex(fmt.Sprintf("k%d", i)), IRI(SubClassOf), ex(fmt.Sprintf("k%d", i+1)))
	}
	if _, err := r.AddBatch(sts); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	before := r.Len()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.Retract(cancelled, sts[0]); err == nil {
		t.Fatal("cancelled retraction succeeded")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("cancelled retraction poisoned the reasoner: %v", err)
	}
	if r.Len() != before {
		t.Fatalf("cancelled retraction mutated the store: %d → %d", before, r.Len())
	}
	// Writes still work, and so does the same retraction, uncancelled.
	mustAdd(t, r, NewStatement(ex("extra"), IRI(SubClassOf), ex("k0")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Retract(ctx, sts[0])
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retracted != 1 || !stats.TwoPhase {
		t.Fatalf("stats = %+v", stats)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The reopened KB reflects the successful retraction only.
	r2, err := Open(dir, RhoDF)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if r2.Contains(NewStatement(ex("k0"), IRI(SubClassOf), ex("k1"))) {
		t.Fatal("retracted edge survived the reopen")
	}
	if !r2.Contains(NewStatement(ex("k1"), IRI(SubClassOf), ex("k2"))) {
		t.Fatal("unretracted edge lost across the reopen")
	}
}
