package slider

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stressSchema builds the subclass chain C0 ⊂ C1 ⊂ … ⊂ C9 used by the
// checkpoint stress tests.
func stressSchema() []Statement {
	var out []Statement
	for i := 0; i < 9; i++ {
		out = append(out, NewStatement(ex(fmt.Sprintf("C%d", i)), IRI(SubClassOf), ex(fmt.Sprintf("C%d", i+1))))
	}
	return out
}

func stressFact(prefix string, i int) Statement {
	return NewStatement(ex(fmt.Sprintf("%s%d", prefix, i)), IRI(Type), ex(fmt.Sprintf("C%d", i%8)))
}

// ckptInFlight reports whether a checkpoint is marking or streaming.
func ckptInFlight(r *Reasoner) bool {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	return r.dur.ckptDone != nil
}

// TestCheckpointStreamingStress hammers a durable reasoner with
// concurrent AddBatch, Retract and query traffic while background
// checkpoints capture and stream the store, then proves (a) writers
// complete inside the streaming window — the old implementation held the
// ingest lock for the whole O(store) write, so nothing could — and
// (b) the checkpoints are consistent: the recovered closure equals the
// closure of exactly the acknowledged operations.
func TestCheckpointStreamingStress(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RhoDF, WithWorkers(4),
		WithCheckpointEvery(128<<10), WithSegmentSize(256<<10))
	if err != nil {
		t.Fatal(err)
	}

	const (
		seedN      = 20000
		retractN   = 12
		writers    = 3
		perWriter  = 30
		batchSize  = 128
		retractPre = "retractme"
	)
	// Seed: schema, a pool of facts the retractor will delete (their
	// subjects are never reused, so the final closure is independent of
	// how retractions interleave with the concurrent adds), and bulk
	// facts to make the streamed snapshot big enough to overlap with.
	var acked []Statement
	addBatch := func(sts []Statement) {
		if _, err := r.AddBatch(sts); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, sts...)
	}
	addBatch(stressSchema())
	var pool []Statement
	for i := 0; i < retractN; i++ {
		pool = append(pool, stressFact(retractPre, i))
	}
	addBatch(pool)
	var batch []Statement
	for i := 0; i < seedN; i++ {
		batch = append(batch, stressFact("seed", i))
		if len(batch) == batchSize {
			addBatch(batch)
			batch = nil
		}
	}
	addBatch(batch)
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Hammer phase: writers, a retractor and a querier run against the
	// store while background checkpoints trigger and stream.
	var (
		wg             sync.WaitGroup
		ackedMu        sync.Mutex
		hammered       []Statement
		retracted      []Statement
		insideStream   atomic.Int64
		maxWriterPause atomic.Int64 // nanoseconds
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < perWriter; b++ {
				sts := make([]Statement, batchSize)
				for i := range sts {
					sts[i] = stressFact(fmt.Sprintf("w%d_%d_", w, b), i)
				}
				before := ckptInFlight(r)
				start := time.Now()
				if _, err := r.AddBatch(sts); err != nil {
					t.Error(err)
					return
				}
				pause := time.Since(start)
				for {
					old := maxWriterPause.Load()
					if int64(pause) <= old || maxWriterPause.CompareAndSwap(old, int64(pause)) {
						break
					}
				}
				if before && ckptInFlight(r) {
					insideStream.Add(1)
				}
				ackedMu.Lock()
				hammered = append(hammered, sts...)
				ackedMu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, st := range pool {
			if _, err := r.Retract(ctx, st); err != nil {
				t.Error(err)
				return
			}
			ackedMu.Lock()
			retracted = append(retracted, st)
			ackedMu.Unlock()
		}
	}()
	stopQueries := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopQueries:
				return
			default:
			}
			// Top of the chain: every typed subject reaches C9.
			r.Contains(NewStatement(ex(fmt.Sprintf("seed%d", i%seedN)), IRI(Type), ex("C9")))
			if i%64 == 0 {
				r.Query(Statement{S: ex(fmt.Sprintf("seed%d", i%seedN))})
			}
		}
	}()
	wg.Wait()
	close(stopQueries)
	qwg.Wait()

	// Deterministic overlap probe: one explicit checkpoint of the now
	// ~100k-triple closure, with writers running only while it streams.
	// Under the old lock-holding capture, at most a handful of blocked
	// writers could complete in the instant the lock was released; the
	// non-blocking path lets them flow throughout.
	var (
		ckptRunning atomic.Bool
		duringCkpt  atomic.Int64
		ckptErr     error
		ckptWG      sync.WaitGroup
	)
	ckptWG.Add(1)
	ckptRunning.Store(true)
	go func() {
		defer ckptWG.Done()
		ckptErr = r.Checkpoint(ctx)
		ckptRunning.Store(false)
	}()
	for b := 0; ckptRunning.Load(); b++ {
		sts := make([]Statement, 32)
		for i := range sts {
			sts[i] = stressFact(fmt.Sprintf("probe%d_", b), i)
		}
		if _, err := r.AddBatch(sts); err != nil {
			t.Fatal(err)
		}
		if ckptRunning.Load() {
			duringCkpt.Add(1)
		}
		// Acknowledged either way, in or out of the capture window.
		ackedMu.Lock()
		hammered = append(hammered, sts...)
		ackedMu.Unlock()
	}
	ckptWG.Wait()
	if ckptErr != nil {
		t.Fatal(ckptErr)
	}
	if got := duringCkpt.Load(); got <= writers {
		t.Fatalf("only %d writes completed while the explicit checkpoint streamed — writers are stalling for the capture", got)
	}
	t.Logf("writes completed inside background streams: %d, inside explicit checkpoint: %d, max writer pause: %s",
		insideStream.Load(), duringCkpt.Load(), time.Duration(maxWriterPause.Load()))

	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := closureSet(r)
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The reference: an in-memory reasoner fed the acknowledged closure —
	// all asserted statements minus the retracted pool entries. Retracted
	// subjects are never re-asserted, so the result is interleaving-free.
	mem := New(RhoDF, WithWorkers(4))
	all := append(append([]Statement{}, acked...), hammered...)
	for i := 0; i < len(all); i += 512 {
		if _, err := mem.AddBatch(all[i:min(i+512, len(all))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Retract(ctx, retracted...); err != nil {
		t.Fatal(err)
	}
	if err := mem.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	ref := closureSet(mem)
	if err := mem.Close(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, want, ref, "live closure vs acknowledged-operations reference")

	// Recovery from the checkpoints + tail reproduces the same state.
	r2, err := Open(dir, RhoDF, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r2), ref, "recovered closure vs acknowledged-operations reference")
}

// TestCloseAbandonedCheckpointClosesLog pins the shutdown-deadline leak:
// when Close gives up waiting for an in-flight checkpoint, the
// checkpoint goroutine must close the write-ahead log — releasing the
// segment descriptor and the directory lock — once it finishes, so a
// same-process reopen of the directory is not wedged forever.
func TestCloseAbandonedCheckpointClosesLog(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("a"), IRI(SubClassOf), ex("b")))
	mustAdd(t, r, NewStatement(ex("x"), IRI(Type), ex("a")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Arm an in-flight checkpoint by hand, exactly as maybeCheckpoint
	// does, but don't run it yet — the Close below must find it pending.
	d := r.dur
	done := make(chan struct{})
	r.writeMu.Lock()
	d.ckptDone = done
	r.writeMu.Unlock()

	expired, cancel := context.WithCancel(ctx)
	cancel()
	if err := r.Close(expired); err != context.Canceled {
		t.Fatalf("Close with expired deadline = %v, want context.Canceled", err)
	}

	// The directory lock is still held by the abandoned reasoner: a
	// same-process reopen must fail until the checkpoint finishes.
	if _, err := Open(dir, RhoDF); err == nil {
		t.Fatal("reopen succeeded while the abandoned checkpoint still owned the log")
	}

	// Now let the "checkpoint" run to completion; it must observe the
	// abandoned Close and shut the log down itself.
	if err := r.runCheckpoint(ctx, done); err != nil {
		t.Fatalf("abandoned checkpoint failed: %v", err)
	}
	r2, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatalf("reopen after abandoned checkpoint finished: %v", err)
	}
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !r2.Contains(NewStatement(ex("x"), IRI(Type), ex("b"))) {
		t.Fatal("closure lost across abandoned close")
	}
	if err := r2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Retrying Close on the abandoned reasoner — the natural way to
	// release its engine goroutines — must succeed cleanly: the log is
	// already closed, so the close-time checkpoint is skipped rather
	// than failing with (and poisoning the reasoner with) ErrClosed.
	if err := r.Close(ctx); err != nil {
		t.Fatalf("retried Close after abandonment: %v", err)
	}
}

// TestBackgroundCheckpointErrorSurfaces pins the silent-failure fix: a
// background checkpoint that cannot write its files must show up through
// Reasoner.Err immediately, and poison later writes with the same error.
func TestBackgroundCheckpointErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.engine.Close(ctx)
	if err := r.Err(); err != nil {
		t.Fatalf("fresh reasoner reports %v", err)
	}
	// Pull the directory out from under the log: segment appends keep
	// working (the fd is open) but the next checkpoint's segment roll or
	// payload write must fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Writes trigger background checkpoints (threshold 1 byte). Some may
	// be acknowledged before the failure lands; eventually Err must
	// report it without any Wait/Close in between.
	deadline := time.Now().Add(10 * time.Second)
	for r.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint failure never surfaced through Err")
		}
		r.AddBatch([]Statement{NewStatement(ex("s"), IRI(Type), ex("C"))})
		time.Sleep(time.Millisecond)
	}
	bgErr := r.Err()
	// The poison is sticky: the next write is refused with the same error.
	if _, err := r.AddBatch([]Statement{NewStatement(ex("t"), IRI(Type), ex("C"))}); err == nil {
		t.Fatal("write accepted after durability failure")
	} else if err.Error() != bgErr.Error() {
		t.Fatalf("write refused with %v, Err reports %v", err, bgErr)
	}
}

// TestCheckpointInFlightBookkeeping pins the stale-channel fix: between
// checkpoints ckptDone must be nil (not the previous, closed channel),
// so a trigger during the stream phase can never start a second
// concurrent capture.
func TestCheckpointInFlightBookkeeping(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("a"), IRI(SubClassOf), ex("b")))
	for i := 0; i < 3; i++ {
		if err := r.Checkpoint(ctx); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		r.writeMu.Lock()
		stale := r.dur.ckptDone
		r.writeMu.Unlock()
		if stale != nil {
			t.Fatalf("ckptDone still set after checkpoint %d completed", i)
		}
		mustAdd(t, r, NewStatement(ex(fmt.Sprintf("s%d", i)), IRI(Type), ex("a")))
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMidStreamCrashRecovery simulates kills at every stage of the
// two-phase checkpoint that leave debris on disk — half-written temp
// payloads, complete-but-uncommitted generation files, stale segments
// below the manifest's first — and checks recovery ignores and sweeps
// all of it, reproducing exactly the closure of the acknowledged
// operations.
func TestMidStreamCrashRecovery(t *testing.T) {
	ctx := context.Background()
	build := func(dir string, checkpoint bool) []string {
		r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
		if err != nil {
			t.Fatal(err)
		}
		mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Mammal")))
		mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
		if checkpoint {
			if err := r.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
		mustAdd(t, r, NewStatement(ex("Mammal"), IRI(SubClassOf), ex("Animal")))
		if err := r.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		want := closureSet(r)
		if err := r.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return want
	}

	shapes := []struct {
		name       string
		checkpoint bool // build with a committed generation-1 checkpoint
		debris     map[string]string
	}{
		{
			// Killed while the payload streamed to its temp file.
			name: "mid-payload-write",
			debris: map[string]string{
				"checkpoint-00000001.slkb.tmp": "torn snapshot bytes",
			},
		},
		{
			// Killed after the payload was renamed into place but
			// before the manifest committed the generation.
			name: "payloads-uncommitted",
			debris: map[string]string{
				"checkpoint-00000001.slkb": "complete but never committed",
			},
		},
		{
			// Killed after the manifest committed generation 1 but before
			// the covered segments and the next (aborted) generation's
			// debris were pruned.
			name:       "committed-unpruned",
			checkpoint: true,
			debris: map[string]string{
				"checkpoint-00000002.slkb.tmp": "next generation, never committed",
			},
		},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			want := build(dir, shape.checkpoint)
			for name, content := range shape.debris {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
					t.Fatal(err)
				}
			}
			r, err := Open(dir, RhoDF, WithWorkers(2))
			if err != nil {
				t.Fatalf("recovery with %s debris: %v", shape.name, err)
			}
			// The debris is swept at Open: everything the manifest does
			// not reference is gone. (Close may later legitimately write
			// files under the same names — check before it does.)
			for name := range shape.debris {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Fatalf("debris %s survived recovery", name)
				}
			}
			if err := r.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			sameClosure(t, closureSet(r), want, "recovered closure with "+shape.name+" debris")
			if err := r.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}
