package slider

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// crashOp is one acknowledged operation: an assert batch or a retraction
// batch. Each op is exactly one write-ahead-log record.
type crashOp struct {
	retract bool
	sts     []Statement
}

func (op crashOp) apply(t *testing.T, r *Reasoner) {
	t.Helper()
	ctx := context.Background()
	if op.retract {
		if _, err := r.Retract(ctx, op.sts...); err != nil {
			t.Fatal(err)
		}
		return
	}
	if _, err := r.AddBatch(op.sts); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryTruncatedSegment is the crash-recovery integration
// test: ingest a mix of assert and retract batches, cut the live WAL
// segment at arbitrary byte offsets (every record boundary and a stride
// of mid-record offsets), reopen, and check the recovered closure equals
// the closure of the acknowledged prefix — the records wholly on disk
// before the cut. A torn record must cost exactly the unacknowledged
// batch, never an error, a panic, or a stale consequence of a replayed
// retraction.
func TestCrashRecoveryTruncatedSegment(t *testing.T) {
	ctx := context.Background()
	st := func(s, p, o string) Statement {
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
	ops := []crashOp{
		{sts: []Statement{st("A", "sub", "B"), st("B", "sub", "C")}},
		{sts: []Statement{st("x", "type", "A"), st("y", "type", "B")}},
		{sts: []Statement{st("C", "sub", "D"), st("knows", "domain", "Person")}},
		{retract: true, sts: []Statement{st("x", "type", "A")}},
		{sts: []Statement{st("z", "type", "C"), st("a", "knows", "b")}},
		{sts: []Statement{st("likes", "subprop", "knows"), st("c", "likes", "d")}},
		{retract: true, sts: []Statement{st("B", "sub", "C")}},
		{sts: []Statement{st("w", "type", "B"), st("knows", "range", "Known")}},
	}

	// Write the master log, recording the segment size after each
	// acknowledged op: appends are synchronous, so the size when op k
	// returns is the boundary of record k+1.
	master := t.TempDir()
	r, err := Open(master, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(master, "segment-00000001.wal")
	boundaries := make([]int64, 0, len(ops)+1)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	boundaries = append(boundaries, fi.Size())
	for _, op := range ops {
		op.apply(t, r)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, fi.Size())
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(master, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}

	// expected[k] is the closure of the first k acknowledged ops,
	// computed by an in-memory reasoner that never crashed.
	expected := make([][]string, len(ops)+1)
	for k := 0; k <= len(ops); k++ {
		mem := New(RhoDF, WithWorkers(2))
		for _, op := range ops[:k] {
			op.apply(t, mem)
		}
		if err := mem.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		expected[k] = closureSet(mem)
		if err := mem.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}

	acknowledged := func(cut int64) int {
		k := 0
		for k+1 < len(boundaries) && boundaries[k+1] <= cut {
			k++
		}
		return k
	}

	// Cut points: every record boundary and its neighbours (the
	// interesting cliff edges), plus a stride through every record body.
	// internal/wal's TestTornTailTruncation covers every byte offset at
	// the log level; here each cut spins a full engine, so the stride is
	// sparser to keep the race-enabled run quick.
	cuts := map[int64]bool{0: true, int64(len(raw)): true}
	for _, b := range boundaries {
		for d := int64(-2); d <= 2; d++ {
			if b+d >= 0 && b+d <= int64(len(raw)) {
				cuts[b+d] = true
			}
		}
	}
	for off := int64(0); off <= int64(len(raw)); off += 13 {
		cuts[off] = true
	}

	for cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), manifest, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "segment-00000001.wal"), raw[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
		if err != nil {
			t.Fatalf("cut=%d: Open after simulated crash: %v", cut, err)
		}
		if err := rec.Wait(ctx); err != nil {
			t.Fatalf("cut=%d: Wait: %v", cut, err)
		}
		k := acknowledged(cut)
		sameClosure(t, closureSet(rec), expected[k],
			"cut="+strconv.FormatInt(cut, 10)+" (acknowledged prefix "+strconv.Itoa(k)+" ops)")
		// The repaired KB must keep working: one more fact, one more
		// inference round.
		if _, err := rec.AddBatch([]Statement{st("q", "type", "A")}); err != nil {
			t.Fatalf("cut=%d: ingest after recovery: %v", cut, err)
		}
		if err := rec.Close(ctx); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}
