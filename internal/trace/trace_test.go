package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// fresh returns a Tracer wired as Default for the duration of the
// test, with retention opened wide (threshold zero retains everything).
func fresh(t *testing.T) *Tracer {
	t.Helper()
	prev := Default
	tr := New()
	tr.SetSlowThreshold(0)
	Default = tr
	t.Cleanup(func() { Default = prev })
	return tr
}

func TestSpanTreeAndRetention(t *testing.T) {
	tr := fresh(t)
	ctx, root := Start(context.Background(), "ingest.flight", Int("flight", 7))
	if root == nil {
		t.Fatal("Start returned nil span with tracing enabled")
	}
	ctx2, batch := Start(ctx, "ingest.batch")
	wal := batch.Child("wal.append")
	wal.SetInt("bytes", 123)
	wal.End()
	if got := FromContext(ctx2); got != batch {
		t.Fatalf("FromContext = %v, want the batch span", got)
	}
	batch.End()
	root.End()

	if n := tr.RootsRetained(); n != 1 {
		t.Fatalf("RootsRetained = %d, want 1", n)
	}
	snap := tr.Snapshot(true)
	if len(snap.Traces) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(snap.Traces))
	}
	tj := snap.Traces[0]
	if tj.Name != "ingest.flight" || tj.Spans != 3 {
		t.Fatalf("trace = %q with %d spans, want ingest.flight with 3", tj.Name, tj.Spans)
	}
	if tj.TraceID != root.TraceID() || len(tj.TraceID) != 32 {
		t.Fatalf("trace id %q does not match root %q", tj.TraceID, root.TraceID())
	}
	// Child spans carry the root's trace id end to end.
	if wal.TraceID() != root.TraceID() || batch.TraceID() != root.TraceID() {
		t.Fatal("child spans do not share the root trace id")
	}
	if len(tj.Root.Children) != 1 || len(tj.Root.Children[0].Children) != 1 {
		t.Fatalf("span tree shape wrong: %+v", tj.Root)
	}
	leaf := tj.Root.Children[0].Children[0]
	if leaf.Name != "wal.append" || leaf.Attrs["bytes"] != int64(123) {
		t.Fatalf("leaf span = %+v", leaf)
	}
	if leaf.ParentID != tj.Root.Children[0].SpanID {
		t.Fatal("leaf parent id does not point at ingest.batch")
	}
	if len(snap.RecentSpans) != 3 {
		t.Fatalf("recent spans = %d, want 3", len(snap.RecentSpans))
	}
}

func TestAsyncChildHoldsTraceOpen(t *testing.T) {
	tr := fresh(t)
	_, root := Start(context.Background(), "ingest.flight")
	async := root.Child("view.visible")
	root.End()
	if n := tr.RootsRetained(); n != 0 {
		t.Fatalf("trace finished with async child still open (retained %d)", n)
	}
	time.Sleep(2 * time.Millisecond)
	async.End()
	if n := tr.RootsRetained(); n != 1 {
		t.Fatalf("RootsRetained = %d after last child ended, want 1", n)
	}
	// Flight duration covers the async child, not just the root span.
	tj := tr.Snapshot(false).Traces[0]
	if tj.DurUS < 2000 {
		t.Fatalf("flight dur %dus does not cover the async child", tj.DurUS)
	}
}

func TestDisabledElidesEverything(t *testing.T) {
	fresh(t)
	prev := Enabled()
	SetEnabled(false)
	defer SetEnabled(prev)
	ctx, sp := Start(context.Background(), "ingest.batch", Int("n", 1))
	if sp != nil {
		t.Fatal("Start returned a live span while disabled")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext returned a span while disabled")
	}
	// All methods are nil-safe no-ops.
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.Error("boom")
	sp.End()
	if c := sp.Child("x"); c != nil {
		t.Fatal("Child on nil span returned a live span")
	}
	if StartRoot("compact.flush") != nil {
		t.Fatal("StartRoot returned a live span while disabled")
	}
}

func TestErrorTracesAlwaysRetained(t *testing.T) {
	tr := fresh(t)
	tr.SetSlowThreshold(time.Hour) // nothing is "slow"
	// First completion of a family is the exemplar; burn it.
	_, s := Start(context.Background(), "http.insert")
	s.End()
	_, fast := Start(context.Background(), "http.insert")
	fast.End()
	if n := tr.RootsRetained(); n != 1 {
		t.Fatalf("fast clean trace retained (got %d)", n)
	}
	_, bad := Start(context.Background(), "http.insert")
	child := bad.Child("wal.append")
	child.Error("disk full")
	child.End()
	bad.End()
	if n := tr.RootsRetained(); n != 2 {
		t.Fatalf("error trace not retained (got %d)", n)
	}
	tj := tr.Snapshot(false).Traces[0]
	if tj.Reason != "error" {
		t.Fatalf("reason = %q, want error", tj.Reason)
	}
	if !tj.Root.Children[0].Err || tj.Root.Children[0].Attrs["error"] != "disk full" {
		t.Fatalf("child error not recorded: %+v", tj.Root.Children[0])
	}
}

func TestRingCapacityEvictsOldest(t *testing.T) {
	tr := fresh(t)
	tr.SetRingCapacity(2)
	for i := 0; i < 5; i++ {
		_, s := Start(context.Background(), "compact.flush")
		s.End()
	}
	if n := tr.RootsRetained(); n != 5 {
		t.Fatalf("RootsRetained = %d, want 5 (counter is total, not ring size)", n)
	}
	if got := len(tr.Retained()); got != 2 {
		t.Fatalf("ring holds %d traces, want 2", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	fresh(t)
	_, s := Start(context.Background(), "http.query")
	h := s.Traceparent()
	hi, lo, parent, ok := parseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", h)
	}
	if hex128(hi, lo) != s.TraceID() || parent != s.id {
		t.Fatalf("round trip mismatch: %q", h)
	}
	s.End()

	const in = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	ctx, rs := StartRequest(context.Background(), "http.insert", in)
	if rs.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("adopted trace id = %q", rs.TraceID())
	}
	if !strings.HasPrefix(rs.Traceparent(), "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Fatalf("outgoing traceparent %q lost the adopted trace id", rs.Traceparent())
	}
	if FromContext(ctx) != rs {
		t.Fatal("StartRequest context does not carry the span")
	}
	rs.End()

	for _, bad := range []string{
		"",
		"garbage",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
	} {
		if _, _, _, ok := parseTraceparent(bad); ok {
			t.Errorf("parseTraceparent(%q) accepted", bad)
		}
	}
	// A fresh id must be minted for the invalid header, not a zero one.
	_, ns := StartRequest(context.Background(), "http.insert", "garbage")
	if ns.TraceID() == strings.Repeat("0", 32) {
		t.Fatal("invalid traceparent produced a zero trace id")
	}
	ns.End()
}

func TestWriteJSONIsValid(t *testing.T) {
	tr := fresh(t)
	_, s := Start(context.Background(), "view.refresh")
	s.Child("infer.rounds").End()
	s.End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if snap["roots_retained"].(float64) < 1 {
		t.Fatalf("roots_retained = %v", snap["roots_retained"])
	}
}

// TestConcurrentSpans exercises the accounting under -race: many
// goroutines building trees with async children against one root.
func TestConcurrentSpans(t *testing.T) {
	tr := fresh(t)
	tr.SetRingCapacity(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := Start(context.Background(), "ingest.flight")
				_, batch := Start(ctx, "ingest.batch")
				async := batch.Child("view.visible")
				batch.SetInt("i", int64(i))
				batch.End()
				root.End()
				async.End()
			}
		}()
	}
	wg.Wait()
	if n := tr.rootsTotal.Load(); n != 8*200 {
		t.Fatalf("rootsTotal = %d, want %d", n, 8*200)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
}

func TestLateChildAfterTraceFinished(t *testing.T) {
	tr := fresh(t)
	_, root := Start(context.Background(), "ingest.flight")
	root.End() // trace completes
	late := root.Child("view.visible")
	if late == nil {
		t.Fatal("late child dropped")
	}
	if late.TraceID() != root.TraceID() {
		t.Fatal("late child lost the trace id")
	}
	late.End()
	// Both the original trace and the straggler completed cleanly.
	if n := tr.rootsTotal.Load(); n != 2 {
		t.Fatalf("rootsTotal = %d, want 2", n)
	}
}

func TestSlowOpLogGatedOnReason(t *testing.T) {
	tr := fresh(t)
	var buf bytes.Buffer
	tr.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))

	// An exemplar retention (first completion of a family, well under
	// any threshold) must stay silent: it is retained for /debug/traces
	// but is not a slow operation.
	tr.SetSlowThreshold(time.Hour)
	StartRoot("ingest.flight").End()
	if buf.Len() != 0 {
		t.Fatalf("exemplar retention logged: %s", buf.String())
	}

	// A genuinely slow root (threshold zero keeps adaptive thresholding
	// off, so the second completion retains as "slow") must emit the
	// structured line with the span family and trace id.
	tr.SetSlowThreshold(0)
	sp := StartRoot("ingest.flight")
	sp.End()
	line := buf.String()
	if !strings.Contains(line, "slow operation") ||
		!strings.Contains(line, "span=ingest.flight") ||
		!strings.Contains(line, "reason=slow") ||
		!strings.Contains(line, sp.TraceID()) {
		t.Fatalf("slow-op line missing fields: %q", line)
	}
}
