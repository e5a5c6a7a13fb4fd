package slider

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// closureSet renders the materialised store as a sorted set of decoded
// statements, for comparing closures across reasoner instances whose
// dictionaries may differ.
func closureSet(r *Reasoner) []string {
	var out []string
	r.Statements(func(st Statement) bool {
		out = append(out, st.String())
		return true
	})
	sort.Strings(out)
	return out
}

func sameClosure(t *testing.T, got, want []string, msg string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s:\n got %d triples:\n  %s\nwant %d triples:\n  %s",
			msg, len(got), strings.Join(got, "\n  "), len(want), strings.Join(want, "\n  "))
	}
}

func TestDurableReopenRestoresClosure(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Mammal")))
	mustAdd(t, r, NewStatement(ex("Mammal"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := closureSet(r)
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r2), want, "closure after clean reopen")
	if !r2.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("inferred triple lost across restart")
	}

	// The reopened store keeps reasoning: new facts join the recovered
	// background knowledge.
	mustAdd(t, r2, NewStatement(ex("tom"), IRI(Type), ex("Cat")))
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !r2.Contains(NewStatement(ex("tom"), IRI(Type), ex("Animal"))) {
		t.Fatal("inference over recovered background knowledge failed")
	}
}

func TestDurableRetractSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Checkpointing disabled: recovery must come purely from replaying
	// the log, including the retract record.
	r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Mammal")))
	mustAdd(t, r, NewStatement(ex("Mammal"), IRI(SubClassOf), ex("Animal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Pet")))
	mustAdd(t, r, NewStatement(ex("Pet"), IRI(SubClassOf), ex("Animal")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retract(ctx, NewStatement(ex("felix"), IRI(Type), ex("Cat"))); err != nil {
		t.Fatal(err)
	}
	if r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Mammal"))) {
		t.Fatal("retraction did not remove sole-derivation consequence")
	}
	if !r.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("retraction removed an alternatively-derived consequence")
	}
	want := closureSet(r)
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r2), want, "closure after replaying a retraction")
	if r2.Contains(NewStatement(ex("felix"), IRI(Type), ex("Cat"))) {
		t.Fatal("retracted explicit triple came back")
	}
	// The recovered explicit bits still support further retraction.
	if _, err := r2.Retract(ctx, NewStatement(ex("Pet"), IRI(SubClassOf), ex("Animal"))); err != nil {
		t.Fatal(err)
	}
	if r2.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("post-restart retraction did not propagate")
	}
}

func TestDurableCheckpointPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("Cat"), IRI(SubClassOf), ex("Mammal")))
	mustAdd(t, r, NewStatement(ex("felix"), IRI(Type), ex("Cat")))
	if err := r.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Tail: logged after the checkpoint, never checkpointed (close-time
	// checkpoint is disabled by the negative WithCheckpointEvery).
	mustAdd(t, r, NewStatement(ex("Mammal"), IRI(SubClassOf), ex("Animal")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := closureSet(r)
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r2), want, "snapshot+tail recovery")
	if !r2.Contains(NewStatement(ex("felix"), IRI(Type), ex("Animal"))) {
		t.Fatal("tail fact did not join checkpointed background knowledge")
	}
}

func TestDurableBackgroundCheckpointing(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// A 1-byte threshold makes every batch trip the background
	// checkpointer; the test just exercises the trigger path end to end.
	r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAdd(t, r, NewStatement(ex("n"+string(rune('a'+i))), IRI(SubClassOf), ex("n"+string(rune('b'+i)))))
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := closureSet(r)
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sameClosure(t, closureSet(r2), want, "closure after background checkpoints")
}

func TestDurableReadOnlySessionSkipsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("a"), IRI(SubClassOf), ex("b")))
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	manifest := func() string {
		b, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := manifest()

	// A session that only reads must not rewrite the checkpoint on exit.
	r2, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Contains(NewStatement(ex("a"), IRI(SubClassOf), ex("b"))) {
		t.Fatal("recovered triple missing")
	}
	if err := r2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if after := manifest(); after != before {
		t.Fatalf("read-only session advanced the checkpoint: %s -> %s", before, after)
	}

	// A session that writes must.
	r3, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r3, NewStatement(ex("b"), IRI(SubClassOf), ex("c")))
	if err := r3.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if after := manifest(); after == before {
		t.Fatal("writing session did not advance the checkpoint")
	}
}

func TestDurableFragmentMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RDFS, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("a"), IRI(SubClassOf), ex("b")))
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, RhoDF, WithWorkers(2)); err == nil {
		t.Fatal("reopening an RDFS-built KB under rhodf was accepted")
	} else if !strings.Contains(err.Error(), "rdfs") {
		t.Fatalf("mismatch error does not name the recorded fragment: %v", err)
	}
	// The matching fragment still opens.
	r2, err := Open(dir, RDFS, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestNewWithDurability(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r := New(RhoDF, WithWorkers(2), WithDurability(dir))
	mustAdd(t, r, NewStatement(ex("a"), IRI(SubClassOf), ex("b")))
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if !r2.Contains(NewStatement(ex("a"), IRI(SubClassOf), ex("b"))) {
		t.Fatal("New(WithDurability) state not recovered by Open")
	}

	// A directory that cannot be created must panic (Open is the
	// error-returning form).
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithDurability) on an unusable path did not panic")
		}
	}()
	bad := dir + "/MANIFEST.json/nope" // parent is a file, MkdirAll must fail
	New(RhoDF, WithDurability(bad))
}

// queuedBatches counts the batches waiting for the writer lock.
func queuedBatches(r *Reasoner) int {
	n := 0
	for b := r.pending.Load(); b != nil; b = b.next {
		n++
	}
	return n
}

// TestConcurrentAssertsShareOneAppend pins group commit for library
// callers: while the writer lock is held, K concurrent AddBatch calls on
// a durable reasoner all queue, and the first to take the lock logs
// every one of them in a single write-ahead-log append. Each caller
// still gets its own fresh count, and a reopen holds the union.
func TestConcurrentAssertsShareOneAppend(t *testing.T) {
	const k = 8
	old := trace.Default
	trace.Default = trace.New()
	trace.Default.SetSlowThreshold(0) // retain every batch's trace
	t.Cleanup(func() { trace.Default = old })
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RhoDF, WithWorkers(2), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	schema := NewStatement(ex("Cat"), IRI(SubClassOf), ex("Animal"))
	mustAdd(t, r, schema)
	appends := r.Metrics().GetCounter("slider_wal_appends_total")
	before := appends.Load()
	member := func(i, j int) Term { return ex(fmt.Sprintf("c%d_%d", i, j)) }

	type result struct{ i, fresh int }
	results := make(chan result, k)
	r.writeMu.Lock()
	for i := 0; i < k; i++ {
		go func() {
			// Caller i asserts i+1 new statements and one already known.
			sts := []Statement{schema}
			for j := 0; j <= i; j++ {
				sts = append(sts, NewStatement(member(i, j), IRI(Type), ex("Cat")))
			}
			n, err := r.AddBatch(sts)
			if err != nil {
				t.Error(err)
			}
			results <- result{i, n}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for queuedBatches(r) < k {
		if time.Now().After(deadline) {
			r.writeMu.Unlock()
			t.Fatalf("only %d of %d batches queued", queuedBatches(r), k)
		}
		time.Sleep(time.Millisecond)
	}
	r.writeMu.Unlock()
	for range k {
		if res := <-results; res.fresh != res.i+1 {
			t.Fatalf("caller %d: fresh = %d, want %d", res.i, res.fresh, res.i+1)
		}
	}
	if got := appends.Load() - before; got != 1 {
		t.Fatalf("%d concurrent batches took %d WAL appends, want 1", k, got)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Every rider's ingest.batch trace shows the shared drain, and
	// exactly one of them ran it.
	riders, drainers := 0, 0
	for _, tr := range trace.Default.Snapshot(false).Traces {
		if a := tr.Root.Attrs; tr.Name == "ingest.batch" && fmt.Sprint(a["wal.batches"]) == fmt.Sprint(k) {
			riders++
			if a["wal.drained_by_self"] == "true" {
				drainers++
			} else if a["wal.drained_by_self"] != "false" {
				t.Fatalf("ingest.batch span has wal.drained_by_self %v, want true or false", a["wal.drained_by_self"])
			}
		}
	}
	if riders != k || drainers != 1 {
		t.Fatalf("%d ingest.batch traces record a drain of %d batches, %d of them as the drainer; want %d and 1", riders, k, drainers, k)
	}

	r2, err := Open(dir, RhoDF, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close(ctx)
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			if !r2.Contains(NewStatement(member(i, j), IRI(Type), ex("Animal"))) {
				t.Fatalf("reopened knowledge base lacks caller %d's statement %d", i, j)
			}
		}
	}
}

// TestOpenRefusesCorruptCheckpoint closes a knowledge base, flips each
// byte of its committed checkpoint in turn, and checks that Open
// returns an error every time, never a knowledge base with altered
// terms. Without a CRC in the checkpoint one flip reloaded "Alice" as
// "Mlice".
func TestOpenRefusesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, RDFS, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r, NewStatement(ex("Person"), IRI(SubClassOf), ex("Agent")))
	mustAdd(t, r, NewStatement(ex("alice"), IRI(Type), ex("Person")))
	mustAdd(t, r, NewStatement(ex("alice"), ex("name"), Literal("Alice")))
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := closureSet(r)
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.slkb"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints after Close: %v, %v; want one", ckpts, err)
	}
	orig, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, len(orig))
	for i := range orig {
		copy(bad, orig)
		bad[i] ^= 0x0c // 'A' ^ 0x0c = 'M'
		if err := os.WriteFile(ckpts[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(dir, RDFS, WithWorkers(1)); err == nil {
			got := closureSet(r)
			r.Close(ctx)
			t.Fatalf("Open accepted the checkpoint with byte %d of %d flipped, holding:\n  %s",
				i, len(orig), strings.Join(got, "\n  "))
		}
	}

	if err := os.WriteFile(ckpts[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = Open(dir, RDFS, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(ctx)
	sameClosure(t, closureSet(r), want, "closure after the checkpoint is restored")
}
