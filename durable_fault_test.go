package slider

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"testing"
	"time"

	"repro/internal/vfs"
)

// fst builds a statement for the fault tests, mapping the shorthand
// predicates ("type", "sub", "subprop", "domain", "range") to their
// schema IRIs so retraction exercises real rederivation.
func fst(s, p, o string) Statement {
	pred := IRI("http://example.org/" + p)
	switch p {
	case "type":
		pred = IRI(Type)
	case "sub":
		pred = IRI(SubClassOf)
	case "subprop":
		pred = IRI(SubPropertyOf)
	case "domain":
		pred = IRI(Domain)
	case "range":
		pred = IRI(Range)
	}
	return NewStatement(ex(s), pred, ex(o))
}

func applyOp(ctx context.Context, r *Reasoner, op crashOp) error {
	if op.retract {
		_, err := r.Retract(ctx, op.sts...)
		return err
	}
	_, err := r.AddBatch(op.sts)
	return err
}

// waitHealthy polls Health until the reasoner's recovery loop brings it
// back to ok.
func waitHealthy(t *testing.T, r *Reasoner) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if h := r.Health(); h.Status == HealthOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("did not recover to ok; health: %+v", r.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// TestDegradedSurvivesEnospcMidIngest is the acceptance scenario at the
// library layer: the disk fills mid-ingest, the reasoner degrades to
// read-only instead of poisoning itself, queries keep serving the
// acknowledged state, and once space frees the recovery loop restores
// full service — same process, no restart, no lost acknowledged batch.
func TestDegradedSurvivesEnospcMidIngest(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS)
	r, err := Open(dir, RhoDF,
		WithVFS(ffs), WithFsync(), WithViewMaxAge(-1), WithLogger(discardLogger()))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := r.AddBatch([]Statement{
		fst("Cat", "sub", "Mammal"),
		fst("felix", "type", "Cat"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	acked := closureSet(r)

	// The disk fills: the next frame tears a few bytes in, ENOSPC.
	ffs.SetWriteBudget(4)
	failed := []Statement{fst("Mammal", "sub", "Animal")}
	if _, err := r.AddBatch(failed); err == nil {
		t.Fatal("ingest on a full disk did not surface")
	} else if !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest on a full disk: %v, want errors.Is ErrDegraded", err)
	}
	h := r.Health()
	if h.Status != HealthDegraded || !h.ReadOnly {
		t.Fatalf("health after ENOSPC = %+v, want degraded read-only", h)
	}
	if h.RetryAfter <= 0 || h.Since.IsZero() || h.Cause == "" {
		t.Fatalf("degraded health missing operator context: %+v", h)
	}

	// Writes are refused up front; reads keep serving the acknowledged
	// closure — the rejected batch must have left no trace.
	if _, err := r.AddBatch(failed); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write while degraded: %v, want ErrDegraded", err)
	}
	if _, err := r.Retract(ctx, fst("felix", "type", "Cat")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("retract while degraded: %v, want ErrDegraded", err)
	}
	sameClosure(t, closureSet(r), acked, "closure while degraded")
	rows, err := r.Select("SELECT ?t WHERE { <http://example.org/felix> <" + Type + "> ?t . }")
	if err != nil || len(rows) != 2 {
		t.Fatalf("query while degraded: rows=%v err=%v, want the 2 acknowledged types", rows, err)
	}

	// Space frees: the recovery loop's next probe succeeds, the retried
	// batch lands, and inference picks it up — no restart.
	ffs.Clear()
	waitHealthy(t, r)
	if _, err := r.AddBatch(failed); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err = r.Select("SELECT ?t WHERE { <http://example.org/felix> <" + Type + "> ?t . }")
	if err != nil || len(rows) != 3 {
		t.Fatalf("query after recovery: rows=%v err=%v, want 3 types", rows, err)
	}
	want := closureSet(r)
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := ffs.RefsyncViolations(); n != 0 {
		t.Fatalf("recovery re-fsynced a failed descriptor %d times", n)
	}

	// Everything acknowledged — including the post-recovery batch —
	// survives a reopen.
	r2, err := Open(dir, RhoDF)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r2), want, "closure after reopen")
}

// scheduleOps is the fixed operation mix the seeded schedules run: a
// blend of schema, instance, and retraction batches so recovery is
// tested against real rederivation, not just appends.
func scheduleOps() []crashOp {
	return []crashOp{
		{sts: []Statement{fst("A", "sub", "B"), fst("B", "sub", "C")}},
		{sts: []Statement{fst("x", "type", "A"), fst("y", "type", "B")}},
		{retract: true, sts: []Statement{fst("x", "type", "A")}},
		{sts: []Statement{fst("z", "type", "C"), fst("a", "knows", "b")}},
		{sts: []Statement{fst("likes", "subprop", "knows"), fst("c", "likes", "d")}},
		{retract: true, sts: []Statement{fst("B", "sub", "C")}},
		{sts: []Statement{fst("w", "type", "B"), fst("knows", "range", "Known")}},
		{sts: []Statement{fst("knows", "domain", "Person"), fst("q", "type", "A")}},
	}
}

// prefixClosures computes, with an in-memory reasoner that never sees a
// fault, the closure of every acknowledged prefix of ops.
func prefixClosures(t *testing.T, ops []crashOp) [][]string {
	t.Helper()
	ctx := context.Background()
	expected := make([][]string, len(ops)+1)
	for k := 0; k <= len(ops); k++ {
		mem := New(RhoDF, WithWorkers(2))
		for _, op := range ops[:k] {
			if err := applyOp(ctx, mem, op); err != nil {
				t.Fatal(err)
			}
		}
		if err := mem.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		expected[k] = closureSet(mem)
		if err := mem.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return expected
}

// runFaultSchedule drives the fixed op mix against a durable reasoner
// while a seed-derived schedule injects disk faults (one-shot fsync
// failure, ENOSPC write budget, torn write) at nFaults positions. At
// every fault it asserts the full degradation contract: the op fails
// with ErrDegraded, health flips to degraded read-only, reads serve
// exactly the closure of the acknowledged prefix, recovery restores ok,
// and the retried op lands. The survivors must replay on reopen.
func runFaultSchedule(t *testing.T, seed int64, nFaults int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	armed := make(map[int]int)
	for len(armed) < nFaults {
		armed[rng.Intn(len(scheduleOps()))] = rng.Intn(3)
	}
	// Budget stays below the smallest record frame (~10 bytes) so the
	// ENOSPC fault always tears the armed op's write.
	runFaultScheduleArmed(t, armed, int64(rng.Intn(5)))
}

// runFaultScheduleAt arms a single fault of the given kind at the given
// op position — the exhaustive-matrix entry point (torture_full_test.go).
func runFaultScheduleAt(t *testing.T, pos, kind int) {
	t.Helper()
	runFaultScheduleArmed(t, map[int]int{pos: kind}, 4)
}

func runFaultScheduleArmed(t *testing.T, armed map[int]int, budget int64) {
	t.Helper()
	ctx := context.Background()
	ops := scheduleOps()
	expected := prefixClosures(t, ops)

	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS)
	r, err := Open(dir, RhoDF,
		WithVFS(ffs), WithFsync(), WithCheckpointEvery(-1), WithViewMaxAge(-1),
		WithLogger(discardLogger()))
	if err != nil {
		t.Fatal(err)
	}

	for i, op := range ops {
		kind, faulty := armed[i]
		if faulty {
			// Settle inference first so the mid-degradation closure
			// check below compares a stable state.
			if err := r.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			switch kind {
			case 0:
				ffs.FailFsync(1, nil)
			case 1:
				ffs.SetWriteBudget(budget)
			case 2:
				ffs.TornWrite(1)
			}
		}
		err := applyOp(ctx, r, op)
		if !faulty {
			if err != nil {
				t.Fatalf("op %d (no fault armed): %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("op %d: armed fault (kind %d) did not surface", i, kind)
		}
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("op %d: fault classified wrong: %v, want ErrDegraded", i, err)
		}
		if h := r.Health(); h.Status != HealthDegraded || !h.ReadOnly {
			t.Fatalf("op %d: health = %+v, want degraded read-only", i, h)
		}
		sameClosure(t, closureSet(r), expected[i],
			fmt.Sprintf("op %d: closure while degraded (acknowledged prefix)", i))
		if err := applyOp(ctx, r, op); !errors.Is(err, ErrDegraded) {
			t.Fatalf("op %d: write while degraded: %v, want ErrDegraded", i, err)
		}
		ffs.Clear()
		waitHealthy(t, r)
		if err := applyOp(ctx, r, op); err != nil {
			t.Fatalf("op %d: retry after recovery: %v", i, err)
		}
	}

	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r), expected[len(ops)], "closure after the full schedule")
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := ffs.RefsyncViolations(); n != 0 {
		t.Fatalf("recovery re-fsynced a failed descriptor %d times", n)
	}

	r2, err := Open(dir, RhoDF)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r2), expected[len(ops)], "closure after reopen")
}

// TestSeededFaultSchedules runs a handful of seeded torture schedules in
// the ordinary test suite; the full matrix lives behind the
// slider_torture build tag (see torture_full_test.go).
func TestSeededFaultSchedules(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runFaultSchedule(t, seed, 2)
		})
	}
}

// TestCheckpointFaultDegradesThenRecovers: checkpoint rename faults are
// retried with backoff; a persistent fault exhausts the budget and
// degrades to read-only, and clearing the fault lets the recovery loop
// restore full service — checkpoints included.
func TestCheckpointFaultDegradesThenRecovers(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS)
	r, err := Open(dir, RhoDF,
		WithVFS(ffs), WithCheckpointEvery(-1), WithViewMaxAge(-1),
		WithLogger(discardLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ffs.Clear()
		r.Close(ctx)
	}()
	if _, err := r.AddBatch([]Statement{fst("Cat", "sub", "Mammal")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	ffs.FailEveryRename(nil)
	// The first failures only mark the reasoner degraded-but-writable
	// (background trouble, writes still land); each explicit checkpoint
	// burns one retry, and with the capped budget spent the reasoner
	// goes read-only instead of retrying forever.
	deadline := time.Now().Add(15 * time.Second)
	for !r.Health().ReadOnly {
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint faults never went read-only; health: %+v", r.Health())
		}
		if err := r.Checkpoint(ctx); err == nil {
			t.Fatal("checkpoint with a rename fault unexpectedly committed")
		}
		if h := r.Health(); h.Status != HealthDegraded {
			t.Fatalf("health after a checkpoint fault = %+v, want degraded", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := r.AddBatch([]Statement{fst("x", "type", "Cat")}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write while degraded: %v, want ErrDegraded", err)
	}

	ffs.Clear()
	waitHealthy(t, r)
	if err := r.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	if _, err := r.AddBatch([]Statement{fst("x", "type", "Cat")}); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if n := ffs.RefsyncViolations(); n != 0 {
		t.Fatalf("recovery re-fsynced a failed descriptor %d times", n)
	}
}

// TestDiskWatermarkProactiveReadOnly: with a -disk-min-free floor set,
// the monitor degrades to read-only *before* ENOSPC can tear a frame,
// and recovers once free space climbs back above the floor.
func TestDiskWatermarkProactiveReadOnly(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS)
	r, err := Open(dir, RhoDF,
		WithVFS(ffs), WithDiskMinFree(1<<20), WithViewMaxAge(-1),
		WithLogger(discardLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ffs.Clear()
		r.Close(ctx)
	}()
	if _, err := r.AddBatch([]Statement{fst("Cat", "sub", "Mammal")}); err != nil {
		t.Fatal(err)
	}

	// Free space sinks below the floor: the monitor's next sample (the
	// poll period is 2s) must flip the reasoner read-only proactively —
	// no write ever failed.
	ffs.SetFreeSpace(512)
	deadline := time.Now().Add(15 * time.Second)
	for r.Health().Status != HealthDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("low watermark never degraded; health: %+v", r.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := r.AddBatch([]Statement{fst("x", "type", "Cat")}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write below the floor: %v, want ErrDegraded", err)
	}

	// Space freed: the recovery probe checks the floor itself, so
	// recovery does not wait for the next monitor sample.
	ffs.SetFreeSpace(-1)
	waitHealthy(t, r)
	if _, err := r.AddBatch([]Statement{fst("x", "type", "Cat")}); err != nil {
		t.Fatalf("ingest after space freed: %v", err)
	}
}
