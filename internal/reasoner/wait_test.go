package reasoner

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

// noTimer is a configuration under which nothing but Wait's own flushes
// can move a buffered triple: a design that leans on the buffer timeout
// (or on any other clock) hangs these tests instead of passing them late.
var noTimer = Config{BufferSize: 1 << 12, Timeout: time.Hour}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func timeoutFlushes(e *Engine) (n int64) {
	for _, m := range e.Stats().Modules {
		n += m.TimeoutFlushes
	}
	return n
}

// countGoroutines waits for goroutines that are on their way out, then
// counts what is left.
func countGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestWaitOneTripleBatch(t *testing.T) {
	ctx := waitCtx(t)
	st := store.New()
	e := New(st, rules.RhoDF(), noTimer)
	defer e.Close(ctx)
	e.AddBatch([]rdf.Triple{sc(b, c), ty(x, a)})
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	e.AddBatch([]rdf.Triple{sc(a, b)})
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, want := range []rdf.Triple{sc(a, c), ty(x, b), ty(x, c)} {
		if !st.Contains(want) {
			t.Fatalf("missing %v after Wait", want)
		}
	}
	if n := timeoutFlushes(e); n != 0 {
		t.Fatalf("%d timeout flushes: Wait leaned on the buffer timeout", n)
	}
}

// TestWaitDependentRounds closes a chain, whose every round feeds the
// next: each must be started by the wake-up of the one before.
func TestWaitDependentRounds(t *testing.T) {
	ctx := waitCtx(t)
	st := store.New()
	e := New(st, rules.RhoDF(), noTimer)
	defer e.Close(ctx)
	input := chain(61)
	e.AddBatch(input)
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertSameClosure(t, rules.RhoDF, st, input)
	// And a link at a time, each Wait a run of dependent rounds.
	for i := 61; i < 81; i++ {
		id := rdf.FirstCustomID + rdf.ID(i)
		link := sc(id, id-1)
		input = append(input, link)
		e.AddBatch([]rdf.Triple{link})
		if err := e.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if !st.Contains(sc(id, rdf.FirstCustomID)) {
			t.Fatalf("link %d: Wait returned before the closure", i)
		}
	}
	assertSameClosure(t, rules.RhoDF, st, input)
	if n := timeoutFlushes(e); n != 0 {
		t.Fatalf("%d timeout flushes: Wait leaned on the buffer timeout", n)
	}
}

func TestWaitConcurrentWaitersAndAdders(t *testing.T) {
	const waiters, adders, perAdder = 6, 4, 40
	ctx := waitCtx(t)
	st := store.New()
	e := New(st, rules.RhoDF(), Config{BufferSize: 8, Timeout: time.Hour})
	input := chain(adders * perAdder)
	var adding, waiting sync.WaitGroup
	for g := 0; g < adders; g++ {
		adding.Add(1)
		go func(part []rdf.Triple) {
			defer adding.Done()
			for _, tr := range part {
				e.AddBatch([]rdf.Triple{tr})
			}
		}(input[g*len(input)/adders : (g+1)*len(input)/adders])
	}
	stop := make(chan struct{})
	for g := 0; g < waiters; g++ {
		waiting.Add(1)
		go func() {
			defer waiting.Done()
			for {
				if err := e.Wait(ctx); err != nil {
					t.Errorf("Wait beside adders: %v", err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	adding.Wait()
	close(stop)
	waiting.Wait()
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertSameClosure(t, rules.RhoDF, st, input)
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// blockingRule holds its instance until release is closed, so inference
// stays in flight for exactly as long as a test wants.
func blockingRule(started chan<- struct{}, release <-chan struct{}) rules.Rule {
	return &rules.CustomRule{
		RuleName: "block",
		In:       []rdf.ID{rdf.IDSubClassOf},
		Fn: func(rules.Source, []rdf.Triple, func(rdf.Triple)) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		},
	}
}

func TestWaitCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	started, release := make(chan struct{}, 1), make(chan struct{})
	e := New(store.New(), []rules.Rule{blockingRule(started, release)}, Config{BufferSize: 1})
	e.Add(sc(a, b))
	<-started

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Wait(done); err != context.Canceled {
		t.Fatalf("Wait with a cancelled ctx = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- e.Wait(ctx) }()
	for e.idle.parked.Load() == 0 {
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Wait cancelled while parked = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait stayed parked after its ctx was cancelled")
	}
	if n := e.idle.parked.Load(); n != 0 {
		t.Fatalf("%d waiters still registered after both returned", n)
	}

	close(release)
	if err := e.Close(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if after := countGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}

// TestWaitRacingClose parks waiters on work that Close's expired ctx
// abandons mid-flight and in buffers; every one of them must return.
func TestWaitRacingClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		started, release := make(chan struct{}, 1), make(chan struct{})
		ruleset := append(rules.RhoDF(), blockingRule(started, release))
		e := New(store.New(), ruleset, Config{BufferSize: 2, Timeout: time.Hour})
		e.AddBatch(chain(6))
		<-started
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := e.Wait(waitCtx(t)); err != nil {
					t.Errorf("Wait beside Close: %v", err)
				}
			}()
		}
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			e.Close(expired)
		}()
		if i%2 == 0 {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		<-closed
	}
}

// TestScannerFlushesWithoutWait is the liveness side of the parked
// scanner: the first triple into a quiescent engine must re-arm it.
func TestScannerFlushesWithoutWait(t *testing.T) {
	st := store.New()
	st.Add(sc(a, b)) // background knowledge, never routed
	e := New(st, rules.RhoDF(), Config{BufferSize: 1000, Timeout: 5 * time.Millisecond})
	defer e.Close(waitCtx(t))
	e.Add(ty(x, a))
	deadline := time.Now().Add(10 * time.Second)
	for !st.Contains(ty(x, b)) {
		if time.Now().After(deadline) {
			t.Fatal("no timeout flush: the scanner was never re-armed")
		}
		time.Sleep(time.Millisecond)
	}
	if timeoutFlushes(e) == 0 {
		t.Fatal("inference ran, but not from a timeout flush")
	}
}

func TestScannerParkedWhileIdle(t *testing.T) {
	ctx := waitCtx(t)
	e := New(store.New(), rules.RhoDF(), Config{Timeout: 4 * time.Millisecond})
	defer e.Close(ctx)
	time.Sleep(50 * time.Millisecond)
	if n := e.scans.Load(); n != 0 {
		t.Fatalf("a fresh engine idle for 50ms made %d scanner passes", n)
	}
	e.AddBatch(chain(10))
	if err := e.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // a tick in flight may still land
	n := e.scans.Load()
	time.Sleep(50 * time.Millisecond)
	if m := e.scans.Load(); m != n {
		t.Fatalf("scanner made %d passes over a quiescent engine", m-n)
	}
}
