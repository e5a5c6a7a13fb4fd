package reasoner

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/baseline"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

const (
	a rdf.ID = rdf.FirstCustomID + iota
	b
	c
	d
	p1
	p2
	x
	y
)

func sc(s, o rdf.ID) rdf.Triple { return rdf.T(s, rdf.IDSubClassOf, o) }
func ty(s, o rdf.ID) rdf.Triple { return rdf.T(s, rdf.IDType, o) }
func sp(s, o rdf.ID) rdf.Triple { return rdf.T(s, rdf.IDSubPropertyOf, o) }

func chain(n int) []rdf.Triple {
	out := []rdf.Triple{ty(rdf.FirstCustomID, rdf.IDClass)}
	for i := 1; i < n; i++ {
		id := rdf.FirstCustomID + rdf.ID(i)
		out = append(out, ty(id, rdf.IDClass), sc(id, id-1))
	}
	return out
}

// runEngine streams input through a fresh engine and returns its store.
func runEngine(t *testing.T, ruleset []rules.Rule, cfg Config, input []rdf.Triple) (*store.Store, Stats) {
	t.Helper()
	st := store.New()
	e := New(st, ruleset, cfg)
	e.AddBatch(input)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Err(); err != nil {
		t.Fatalf("engine error: %v", err)
	}
	return st, e.Stats()
}

// assertSameClosure verifies the engine's store equals the baseline
// (semi-naive batch) closure of the same input — the baseline is the
// independently-implemented oracle.
func assertSameClosure(t *testing.T, ruleset func() []rules.Rule, got *store.Store, input []rdf.Triple) {
	t.Helper()
	oracle, _, err := baseline.Closure(context.Background(), ruleset(), input)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != oracle.Len() {
		t.Fatalf("engine closure has %d triples, oracle %d", got.Len(), oracle.Len())
	}
	var missing []rdf.Triple
	oracle.ForEach(func(tr rdf.Triple) bool {
		if !got.Contains(tr) {
			missing = append(missing, tr)
			return len(missing) < 5
		}
		return true
	})
	if len(missing) > 0 {
		t.Fatalf("engine closure missing %v", missing)
	}
}

func TestEngineSimpleTransitivity(t *testing.T) {
	st, stats := runEngine(t, rules.RhoDF(), Config{}, []rdf.Triple{sc(a, b), sc(b, c)})
	if !st.Contains(sc(a, c)) {
		t.Fatal("missing inferred (a sc c)")
	}
	if stats.Input != 2 || stats.Inferred != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEngineCaxScoAcrossBatches(t *testing.T) {
	// Schema first, then instance data much later (tests store⋈delta
	// direction across separate flushes).
	st := store.New()
	e := New(st, rules.RhoDF(), Config{BufferSize: 1})
	e.Add(sc(a, b))
	ctx := context.Background()
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	e.Add(ty(x, a))
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(ty(x, b)) {
		t.Fatal("cax-sco did not fire across batches")
	}
}

func TestEngineMatchesBaselineOnChains(t *testing.T) {
	for _, n := range []int{5, 25, 80} {
		for _, bufSize := range []int{1, 7, 128, 100000} {
			input := chain(n)
			st, _ := runEngine(t, rules.RhoDF(), Config{BufferSize: bufSize, Timeout: 2 * time.Millisecond}, input)
			assertSameClosure(t, rules.RhoDF, st, input)
		}
	}
}

func TestEngineMatchesBaselineRDFS(t *testing.T) {
	input := chain(30)
	input = append(input,
		rdf.T(p2, rdf.IDDomain, c),
		sp(p1, p2),
		rdf.T(x, p1, y),
		ty(p1, rdf.IDProperty),
		rdf.T(p2, rdf.IDRange, d),
	)
	st, _ := runEngine(t, rules.RDFS(), Config{BufferSize: 4}, input)
	assertSameClosure(t, rules.RDFS, st, input)
}

func TestEngineChainClosureFormula(t *testing.T) {
	n := 60
	st, stats := runEngine(t, rules.RhoDF(), Config{}, chain(n))
	m := n - 1
	want := m * (m - 1) / 2
	if int(stats.Inferred) != want {
		t.Fatalf("inferred %d, want %d", stats.Inferred, want)
	}
	if st.Len() != len(chain(n))+want {
		t.Fatalf("store size %d, want %d", st.Len(), len(chain(n))+want)
	}
}

// Property: streaming the same input in any order, in any chunking, with
// any buffer size, yields the same closure as the batch oracle
// (incremental ≡ batch).
func TestEngineIncrementalEqualsBatchProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random small ontology: classes, properties, instances.
		var input []rdf.Triple
		nc := rng.Intn(8) + 2
		class := func(i int) rdf.ID { return rdf.FirstCustomID + rdf.ID(i) }
		prop := func(i int) rdf.ID { return rdf.FirstCustomID + 100 + rdf.ID(i) }
		inst := func(i int) rdf.ID { return rdf.FirstCustomID + 200 + rdf.ID(i) }
		for i := 0; i < nc; i++ {
			input = append(input, sc(class(rng.Intn(nc)), class(rng.Intn(nc))))
		}
		np := rng.Intn(4) + 1
		for i := 0; i < np; i++ {
			input = append(input, sp(prop(rng.Intn(np)), prop(rng.Intn(np))))
			input = append(input, rdf.T(prop(rng.Intn(np)), rdf.IDDomain, class(rng.Intn(nc))))
			input = append(input, rdf.T(prop(rng.Intn(np)), rdf.IDRange, class(rng.Intn(nc))))
		}
		for i := 0; i < rng.Intn(20)+5; i++ {
			switch rng.Intn(2) {
			case 0:
				input = append(input, ty(inst(rng.Intn(10)), class(rng.Intn(nc))))
			default:
				input = append(input, rdf.T(inst(rng.Intn(10)), prop(rng.Intn(np)), inst(rng.Intn(10))))
			}
		}
		rng.Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })

		st := store.New()
		e := New(st, rules.RhoDF(), Config{BufferSize: rng.Intn(16) + 1, Timeout: time.Millisecond})
		for _, tr := range input {
			e.Add(tr)
			if rng.Intn(4) == 0 {
				time.Sleep(50 * time.Microsecond) // let timeouts interleave
			}
		}
		if err := e.Close(context.Background()); err != nil {
			return false
		}
		oracle, _, err := baseline.Closure(context.Background(), rules.RhoDF(), input)
		if err != nil {
			return false
		}
		if oracle.Len() != st.Len() {
			t.Logf("seed %d: engine %d oracle %d", seed, st.Len(), oracle.Len())
			return false
		}
		ok := true
		oracle.ForEach(func(tr rdf.Triple) bool {
			if !st.Contains(tr) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: RDFS incremental ≡ batch, including the schema-trigger rules
// (rdfs6/8/10) and resource typing interacting with cax-sco.
func TestEngineRDFSIncrementalEqualsBatchProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var input []rdf.Triple
		id := func(i int) rdf.ID { return rdf.FirstCustomID + rdf.ID(i) }
		for i := 0; i < rng.Intn(20)+5; i++ {
			switch rng.Intn(4) {
			case 0:
				input = append(input, sc(id(rng.Intn(6)), id(rng.Intn(6))))
			case 1:
				input = append(input, ty(id(rng.Intn(6)), rdf.IDClass))
			case 2:
				input = append(input, ty(id(rng.Intn(6)+100), id(rng.Intn(6))))
			default:
				input = append(input, rdf.T(id(rng.Intn(6)+100), id(rng.Intn(3)+200), id(rng.Intn(6)+100)))
			}
		}
		rng.Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })
		st := store.New()
		e := New(st, rules.RDFS(), Config{BufferSize: rng.Intn(8) + 1})
		e.AddBatch(input)
		if err := e.Close(context.Background()); err != nil {
			return false
		}
		oracle, _, err := baseline.Closure(context.Background(), rules.RDFS(), input)
		if err != nil || oracle.Len() != st.Len() {
			return false
		}
		ok := true
		oracle.ForEach(func(tr rdf.Triple) bool {
			if !st.Contains(tr) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineConcurrentAdders(t *testing.T) {
	// Multiple input managers feeding the engine in parallel (paper:
	// "Multiple instances of input manager allows to retrieve data from
	// various sources").
	input := chain(120)
	st := store.New()
	e := New(st, rules.RhoDF(), Config{BufferSize: 16})
	var wg sync.WaitGroup
	const adders = 4
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(input); i += adders {
				e.Add(input[i])
			}
		}(g)
	}
	wg.Wait()
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSameClosure(t, rules.RhoDF, st, input)
}

func TestEngineDuplicateInputDropped(t *testing.T) {
	st := store.New()
	e := New(st, rules.RhoDF(), Config{})
	e.Add(sc(a, b))
	e.Add(sc(a, b))
	e.Add(sc(a, b))
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := e.Stats()
	if stats.Input != 1 || stats.DuplicateInput != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEngineTimeoutFlushDrivesInference(t *testing.T) {
	// A buffer below capacity must still flush via timeout, without Wait.
	st := store.New()
	e := New(st, rules.RhoDF(), Config{BufferSize: 1000, Timeout: 5 * time.Millisecond})
	e.Add(sc(a, b))
	e.Add(sc(b, c))
	deadline := time.Now().Add(5 * time.Second)
	for !st.Contains(sc(a, c)) {
		if time.Now().After(deadline) {
			t.Fatal("timeout flush never fired inference")
		}
		time.Sleep(time.Millisecond)
	}
	stats := e.Stats()
	timeouts := int64(0)
	for _, m := range stats.Modules {
		timeouts += m.TimeoutFlushes
	}
	if timeouts == 0 {
		t.Fatal("no timeout flush recorded")
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineBufferFullFlushRecorded(t *testing.T) {
	st := store.New()
	e := New(st, rules.RhoDF(), Config{BufferSize: 2, Timeout: time.Hour})
	for i := 0; i < 10; i++ {
		e.Add(sc(rdf.FirstCustomID+rdf.ID(i), rdf.FirstCustomID+rdf.ID(i+1)))
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ms := e.Stats().ModuleByName("scm-sco")
	if ms.BufferFullFlushes == 0 {
		t.Fatalf("scm-sco stats = %+v, want buffer-full flushes", ms)
	}
	if ms.Routed < 10 {
		t.Fatalf("scm-sco routed = %d, want >= 10", ms.Routed)
	}
}

func TestEngineStatsConsistency(t *testing.T) {
	input := chain(50)
	_, stats := runEngine(t, rules.RhoDF(), Config{BufferSize: 8}, input)
	var fresh int64
	for _, m := range stats.Modules {
		fresh += m.Fresh
		if m.Derived < m.Fresh {
			t.Fatalf("module %s derived %d < fresh %d", m.Rule, m.Derived, m.Fresh)
		}
	}
	if fresh != stats.Inferred {
		t.Fatalf("sum of module fresh %d != engine inferred %d", fresh, stats.Inferred)
	}
	if stats.Executions == 0 {
		t.Fatal("no executions recorded")
	}
	if stats.ModuleByName("no-such-rule") != (ModuleStats{}) {
		t.Fatal("unknown module should return zero stats")
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	boom := &rules.CustomRule{
		RuleName: "boom",
		In:       []rdf.ID{rdf.IDSubClassOf},
		Out:      nil,
		Fn: func(_ rules.Source, delta []rdf.Triple, _ func(rdf.Triple)) {
			panic("injected failure")
		},
	}
	ruleset := append(rules.RhoDF(), boom)
	st := store.New()
	e := New(st, ruleset, Config{BufferSize: 1})
	e.Add(sc(a, b))
	e.Add(sc(b, c))
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Inference completed despite the panicking rule...
	if !st.Contains(sc(a, c)) {
		t.Fatal("panic in one rule blocked inference in others")
	}
	// ...and the failure is reported.
	if e.Err() == nil {
		t.Fatal("rule panic not surfaced via Err")
	}
}

func TestEngineAddAfterCloseIsNoop(t *testing.T) {
	st := store.New()
	e := New(st, rules.RhoDF(), Config{})
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Add(sc(a, b)) {
		t.Fatal("Add after Close reported fresh")
	}
	if st.Len() != 0 {
		t.Fatal("Add after Close mutated store")
	}
	// Double close is safe.
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWaitContextCancellation(t *testing.T) {
	st := store.New()
	// A rule that sleeps, so work stays in flight.
	slow := &rules.CustomRule{
		RuleName: "slow",
		In:       []rdf.ID{rdf.IDSubClassOf},
		Out:      nil,
		Fn: func(_ rules.Source, delta []rdf.Triple, _ func(rdf.Triple)) {
			time.Sleep(200 * time.Millisecond)
		},
	}
	e := New(st, []rules.Rule{slow}, Config{BufferSize: 1})
	e.Add(sc(a, b))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Wait(ctx); err == nil {
		t.Fatal("Wait ignored context cancellation")
	}
	// Clean up fully.
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWaitIdempotentAndReusable(t *testing.T) {
	st := store.New()
	e := New(st, rules.RhoDF(), Config{})
	ctx := context.Background()
	if err := e.Wait(ctx); err != nil { // empty engine quiesces immediately
		t.Fatal(err)
	}
	e.Add(sc(a, b))
	e.Add(sc(b, c))
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(sc(a, c)) {
		t.Fatal("closure incomplete after Wait")
	}
	// Stream more after a Wait: engine keeps working.
	e.Add(sc(c, d))
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, want := range []rdf.Triple{sc(a, d), sc(b, d)} {
		if !st.Contains(want) {
			t.Fatalf("missing %v after second Wait", want)
		}
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestEngineBackgroundKnowledge(t *testing.T) {
	// Pre-loaded store contents act as background knowledge: joins see
	// them even though they were never streamed.
	st := store.New()
	st.Add(ty(x, a))
	e := New(st, rules.RhoDF(), Config{})
	e.Add(sc(a, b))
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(ty(x, b)) {
		t.Fatal("background knowledge not joined")
	}
}

func TestEngineObserverEvents(t *testing.T) {
	var mu sync.Mutex
	events := map[string]int{}
	obs := &countingObserver{mu: &mu, events: events}
	st := store.New()
	e := New(st, rules.RhoDF(), Config{BufferSize: 1, Observer: obs})
	e.Add(sc(a, b))
	e.Add(sc(b, c))
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range []string{"input", "route", "flush", "execute"} {
		if events[k] == 0 {
			t.Errorf("observer never saw %q (events: %v)", k, events)
		}
	}
}

type countingObserver struct {
	mu     *sync.Mutex
	events map[string]int
}

func (o *countingObserver) OnInput(rdf.Triple)               { o.bump("input") }
func (o *countingObserver) OnRoute(string, rdf.Triple)       { o.bump("route") }
func (o *countingObserver) OnFlush(string, FlushReason, int) { o.bump("flush") }
func (o *countingObserver) OnExecute(string, int, int, int)  { o.bump("execute") }
func (o *countingObserver) bump(k string) {
	o.mu.Lock()
	o.events[k]++
	o.mu.Unlock()
}

func TestEngineGraphExposed(t *testing.T) {
	e := New(store.New(), rules.RhoDF(), Config{})
	defer e.Close(context.Background())
	if !e.Graph().HasEdge("scm-sco", "cax-sco") {
		t.Fatal("engine graph missing Figure 2 edge")
	}
}

func TestFlushReasonString(t *testing.T) {
	if FlushFull.String() != "full" || FlushTimeout.String() != "timeout" ||
		FlushExplicit.String() != "explicit" || FlushReason(9).String() != "unknown" {
		t.Fatal("FlushReason.String mismatch")
	}
}

func TestEngineLargeStreamThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A moderately large BSBM-like mix, checking end-to-end completeness.
	rng := rand.New(rand.NewSource(42))
	var input []rdf.Triple
	for i := 0; i < 120; i++ {
		input = append(input, sc(rdf.FirstCustomID+rdf.ID(rng.Intn(60)), rdf.FirstCustomID+rdf.ID(rng.Intn(60))))
	}
	for i := 0; i < 3000; i++ {
		input = append(input, ty(rdf.FirstCustomID+1000+rdf.ID(i), rdf.FirstCustomID+rdf.ID(rng.Intn(60))))
	}
	st, _ := runEngine(t, rules.RhoDF(), Config{}, input)
	assertSameClosure(t, rules.RhoDF, st, input)
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BufferSize != DefaultBufferSize || c.Timeout != DefaultTimeout || c.Workers <= 0 {
		t.Fatalf("defaults = %+v", c)
	}
	c2 := Config{BufferSize: 7, Timeout: time.Second, Workers: 3}.withDefaults()
	if c2.BufferSize != 7 || c2.Timeout != time.Second || c2.Workers != 3 {
		t.Fatalf("explicit config overridden: %+v", c2)
	}
}

func TestPoolDrainsQueueOnStop(t *testing.T) {
	var mu sync.Mutex
	ran := 0
	p := newPool(2, func(task) {
		mu.Lock()
		ran++
		mu.Unlock()
	})
	for i := 0; i < 50; i++ {
		p.submit(task{})
	}
	p.stop()
	mu.Lock()
	defer mu.Unlock()
	if ran != 50 {
		t.Fatalf("pool ran %d tasks before stop, want 50 (queue must drain)", ran)
	}
	if p.submit(task{}) {
		t.Fatal("submit after stop accepted")
	}
}

func TestBufferStaleness(t *testing.T) {
	buf := newBuffer(10)
	if buf.takeAll() != nil {
		t.Fatal("empty buffer takeAll should be nil")
	}
	buf.add(sc(a, b))
	now := time.Now()
	if got := buf.takeStale(time.Minute, now); got != nil {
		t.Fatal("fresh buffer reported stale")
	}
	if got := buf.takeStale(0, now.Add(time.Second)); len(got) != 1 {
		t.Fatalf("stale buffer not taken: %v", got)
	}
	if buf.size() != 0 {
		t.Fatal("takeStale did not clear buffer")
	}
}

func TestBufferCapacityFlush(t *testing.T) {
	buf := newBuffer(3)
	if buf.add(sc(a, b)) != nil || buf.add(sc(b, c)) != nil {
		t.Fatal("premature flush")
	}
	batch := buf.add(sc(c, d))
	if len(batch) != 3 {
		t.Fatalf("flush batch = %v", batch)
	}
	if buf.size() != 0 {
		t.Fatal("buffer not reset after flush")
	}
}

func ExampleEngine() {
	st := store.New()
	e := New(st, rules.RhoDF(), Config{})
	e.Add(rdf.T(a, rdf.IDSubClassOf, b))
	e.Add(rdf.T(b, rdf.IDSubClassOf, c))
	_ = e.Close(context.Background())
	fmt.Println(st.Contains(rdf.T(a, rdf.IDSubClassOf, c)))
	// Output: true
}
