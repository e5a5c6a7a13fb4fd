package slider

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
)

// TestViewSnapshotIsolation pins the read-session guarantee: a session
// answers from its freeze-time closure no matter what lands afterwards.
func TestViewSnapshotIsolation(t *testing.T) {
	ctx := context.Background()
	r := New(RhoDF, WithViewMaxAge(-1)) // refresh on every change
	defer r.Close(ctx)

	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// The snapshot holds the closure: felix is an Animal.
	if !v.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("inferred statement missing from view")
	}
	// New data is invisible to the open session but visible to a new one.
	mustAdd(t, r, NewStatement(ex("tom"), IRI(Type), ex("Cat")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if v.Contains(NewStatement(ex("tom"), IRI(Type), ex("Cat"))) {
		t.Fatal("post-snapshot statement leaked into open session")
	}
	v2, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if !v2.Contains(NewStatement(ex("tom"), IRI(Type), ex("Animal"))) {
		t.Fatal("fresh session missing new closure")
	}
	if v.Len() >= v2.Len() {
		t.Fatalf("session lengths not monotone: %d vs %d", v.Len(), v2.Len())
	}
}

// TestViewSelectStreamsWithLimit exercises the streamed query path on a
// session, including the parser's LIMIT clause.
func TestViewSelectStreamsWithLimit(t *testing.T) {
	ctx := context.Background()
	r := New(RhoDF)
	defer r.Close(ctx)
	for i := 0; i < 20; i++ {
		mustAdd(t, r, NewStatement(ex(fmt.Sprintf("p%02d", i)), IRI(Type), ex("Product")))
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var rows []Binding
	err = v.SelectFunc(
		`SELECT ?x WHERE { ?x a <http://example.org/Product> . } LIMIT 5`,
		func(b Binding) bool { rows = append(rows, b); return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("streamed %d rows, want 5", len(rows))
	}
	all, err := v.Select(`SELECT ?x WHERE { ?x a <http://example.org/Product> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("Select returned %d rows, want 20", len(all))
	}
}

// TestViewSharing pins the snapshot-sharing contract: with an unchanged
// store, concurrent sessions share one underlying snapshot; a mutation
// plus an expired max-age forces a refresh.
func TestViewSharing(t *testing.T) {
	ctx := context.Background()
	r := New(RhoDF, WithViewMaxAge(time.Hour))
	defer r.Close(ctx)
	mustAdd(t, r, NewStatement(ex("a"), IRI(Type), ex("T")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v1, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v1.shared != v2.shared {
		t.Fatal("unchanged store: sessions should share one snapshot")
	}
	v1.Close()
	v1.Close() // idempotent
	v2.Close()

	// A store change with an unexpired max-age still reuses (bounded
	// staleness is allowed)…
	mustAdd(t, r, NewStatement(ex("b"), IRI(Type), ex("T")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v3, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v3.shared != v1.shared {
		t.Fatal("young snapshot should be reused despite the change")
	}
	// …but an aged-out one refreshes.
	r.viewMu.Lock()
	r.viewCur.born = time.Now().Add(-2 * time.Hour)
	r.viewMu.Unlock()
	v4, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v4.shared == v3.shared {
		t.Fatal("aged, stale snapshot was not refreshed")
	}
	if !v4.Contains(NewStatement(ex("b"), IRI(Type), ex("T"))) {
		t.Fatal("refreshed snapshot missing the new statement")
	}
	v3.Close()
	v4.Close()
}

// TestViewConcurrentWithIngest hammers ingest while read sessions open,
// query and close, checking under -race that every session sees a
// closed, consistent prefix: if a member's typing is visible, the whole
// subclass chain's consequences for it are too.
func TestViewConcurrentWithIngest(t *testing.T) {
	ctx := context.Background()
	r := New(RhoDF, WithViewMaxAge(time.Millisecond))
	defer r.Close(ctx)
	// Schema: C0 ⊂ C1 ⊂ … ⊂ C5.
	for i := 0; i < 5; i++ {
		mustAdd(t, r, NewStatement(ex(fmt.Sprintf("C%d", i)), IRI(SubClassOf), ex(fmt.Sprintf("C%d", i+1))))
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 120
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				st := NewStatement(ex(fmt.Sprintf("m%d_%d", w, i)), IRI(Type), ex("C0"))
				if _, err := r.AddBatch([]Statement{st}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	querierDone := make(chan struct{})
	go func() {
		defer close(querierDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := r.View(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			// Consistency: any member typed C0 in the snapshot must have
			// its full inferred chain in the same snapshot.
			rows, err := v.Select(`SELECT ?m WHERE { ?m a <http://example.org/C0> . }`)
			if err != nil {
				t.Error(err)
				v.Close()
				return
			}
			for _, b := range rows {
				if !v.Contains(NewStatement(b["m"], IRI(Type), ex("C5"))) {
					t.Errorf("snapshot holds %v type C0 but not type C5: not a closure", b["m"])
					v.Close()
					return
				}
			}
			v.Close()
		}
	}()
	wg.Wait()
	close(stop)
	<-querierDone

	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Outlast ViewMaxAge: a snapshot younger than that may be served
	// stale, and Wait no longer takes long enough to age one out.
	time.Sleep(2 * time.Millisecond)
	v, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rows, err := v.Select(`SELECT ?m WHERE { ?m a <http://example.org/C5> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != writers*perWriter {
		t.Fatalf("final snapshot has %d members, want %d", len(rows), writers*perWriter)
	}
}

// TestViewReadYourWrites pins the always-current contract: under a
// negative max age each writer finds its acknowledged batch —
// inferences included — in the first session it opens, every time,
// however many other writers are committing beside it and however many
// callers are opening sessions (and so running refreshes that froze
// before the batch).
func TestViewReadYourWrites(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r := New(RhoDF, WithViewMaxAge(-1))
	defer r.Close(ctx)
	mustAdd(t, r, NewStatement(ex("C0"), IRI(SubClassOf), ex("C1")))

	var readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := r.View(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				v.Close()
			}
		}()
	}
	// Several writers at once, so batches are group-committed: a batch
	// another caller's drain ran must be visible to its own caller too.
	const writers, perWriter = 4, 75
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m := ex(fmt.Sprintf("m%d_%d", w, i))
				if _, err := r.AddBatch([]Statement{NewStatement(m, IRI(Type), ex("C0"))}); err != nil {
					t.Error(err)
					return
				}
				v, err := r.View(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				ok := v.Contains(NewStatement(m, IRI(Type), ex("C1")))
				v.Close()
				if !ok {
					t.Errorf("writer %d batch %d: its inferred triple is not in the first session opened after the ack", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
}

// gatedReasoner is a ρdf reasoner with one more rule, which holds every
// instance it is given (any rdfs:label triple starts one) while a gate
// is set — so a test decides how long a refresh's drain takes.
func gatedReasoner(opts ...Option) (*Reasoner, *atomic.Pointer[chan struct{}]) {
	gate := new(atomic.Pointer[chan struct{}])
	hold := &CustomRule{
		RuleName: "hold",
		In:       []rdf.ID{rdf.IDLabel},
		Fn: func(Source, []Triple, func(Triple)) {
			if g := gate.Load(); g != nil {
				<-*g
			}
		},
	}
	return New(CustomFragment("rhodf+hold", append(RhoDF.Rules(), hold)...), opts...), gate
}

// heldRefresh makes the next refresh block in its drain: it sets the
// gate, adds a label triple and starts a View call that has to claim
// the refresh. It returns once that refresh is in flight.
func heldRefresh(ctx context.Context, t *testing.T, r *Reasoner, gate *atomic.Pointer[chan struct{}], name string) (release func(), result <-chan error) {
	t.Helper()
	g := make(chan struct{})
	gate.Store(&g)
	mustAdd(t, r, NewStatement(ex(name), IRI(Label), Literal(name)))
	errc := make(chan error, 1)
	go func() {
		v, err := r.View(ctx)
		if err == nil {
			v.Close()
		}
		errc <- err
	}()
	for {
		r.viewMu.Lock()
		inFlight := r.viewFlight != nil
		r.viewMu.Unlock()
		if inFlight {
			return func() { gate.Store(nil); close(g) }, errc
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestViewServesPreviousDuringRefresh pins the other side of the rule:
// under a positive max age only the claimant pays for a refresh, and a
// caller arriving while it runs is served the previous snapshot at once.
func TestViewServesPreviousDuringRefresh(t *testing.T) {
	ctx := context.Background()
	r, gate := gatedReasoner(WithViewMaxAge(time.Millisecond))
	defer r.Close(ctx)
	mustAdd(t, r, NewStatement(ex("a"), IRI(Type), ex("T")))
	v0, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer v0.Close()
	time.Sleep(2 * time.Millisecond) // age the snapshot out
	release, refreshed := heldRefresh(ctx, t, r, gate, "held")

	served := make(chan *View, 1)
	go func() {
		v, err := r.View(ctx)
		if err != nil {
			t.Error(err)
		}
		served <- v
	}()
	select {
	case v := <-served:
		if v.shared != v0.shared {
			t.Error("caller beside a refresh was not served the previous snapshot")
		}
		v.Close()
	case <-time.After(10 * time.Second):
		t.Error("caller beside a refresh blocked on it")
	}
	release()
	if err := <-refreshed; err != nil {
		t.Fatal(err)
	}
}

// panicCtx is a context whose Done panics: an injected fault in the
// middle of a refresh (the drain selects on it).
type panicCtx struct{ context.Context }

func (panicCtx) Done() <-chan struct{} { panic("injected refresh failure") }

// TestViewRefreshFailureDoesNotStick fails refreshes both ways — a panic
// and an error — and checks neither leaves the refresh marked in flight:
// a joiner takes over from a failed claimant, and later sessions are
// fresh rather than frozen at the last good snapshot.
func TestViewRefreshFailureDoesNotStick(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, gate := gatedReasoner(WithViewMaxAge(-1))
	defer r.Close(ctx)
	mustAdd(t, r, NewStatement(ex("C0"), IRI(SubClassOf), ex("C1")))
	v, err := r.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v.Close()

	mustAdd(t, r, NewStatement(ex("m1"), IRI(Type), ex("C0")))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the injected panic did not reach the caller")
			}
		}()
		r.View(panicCtx{ctx})
	}()

	// A claimant whose ctx is cancelled mid-drain, with a joiner parked
	// on its refresh.
	claimCtx, abandon := context.WithCancel(ctx)
	release, claimed := heldRefresh(claimCtx, t, r, gate, "held")
	joined := make(chan bool, 1)
	go func() {
		v, err := r.View(ctx)
		if err != nil {
			t.Error(err)
			joined <- false
			return
		}
		defer v.Close()
		joined <- v.Contains(NewStatement(ex("m1"), IRI(Type), ex("C1")))
	}()
	abandon()
	if err := <-claimed; err != context.Canceled {
		t.Fatalf("abandoned refresh = %v, want context.Canceled", err)
	}
	release()
	if !<-joined {
		t.Fatal("joiner of a failed refresh did not get a fresh session")
	}
	r.viewMu.Lock()
	stuck := r.viewFlight != nil
	r.viewMu.Unlock()
	if stuck {
		t.Fatal("a refresh is still marked in flight after all of them ended")
	}
}
