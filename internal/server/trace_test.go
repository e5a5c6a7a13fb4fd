package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	slider "repro"
	"repro/internal/trace"
)

// waitTrace polls until cond sees the trace state it wants — insert
// traces complete asynchronously (inference quiescence and view
// visibility settle on the lifecycle watcher's grain).
func waitTrace(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// withZeroThresholdTracer swaps the default tracer for one that retains
// every completed trace, restoring the production tracer on cleanup.
func withZeroThresholdTracer(t *testing.T) {
	t.Helper()
	old := trace.Default
	trace.Default = trace.New()
	trace.Default.SetSlowThreshold(0)
	t.Cleanup(func() { trace.Default = old })
}

func TestExplainRecordFramedAfterRowsBeforeTrailer(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	var doc strings.Builder
	for i := 0; i < 50; i++ {
		doc.WriteString(ntLine(fmt.Sprintf("m%d", i), typeIRI(), "Cat"))
	}
	if resp, body := post(t, ts.URL+"/v1/insert", "text/plain", doc.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}

	resp, body := post(t, ts.URL+"/v1/query?explain=1", "application/sparql-query",
		"SELECT ?s WHERE { ?s a <"+exNS+"Cat> . }")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	// Strict framing: head, 50 binding rows, explain, done trailer —
	// the explain record must be exactly second-to-last, and no binding
	// row may appear after it.
	if len(lines) != 53 {
		t.Fatalf("expected 53 NDJSON lines (head+50+explain+trailer), got %d:\n%s", len(lines), body)
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%q)", i, err, ln)
		}
		_, isExplain := m["explain"]
		if isExplain != (i == len(lines)-2) {
			t.Fatalf("explain record misplaced: found at line %d of %d", i, len(lines))
		}
	}
	var exRec struct {
		Explain struct {
			Order    []int `json:"order"`
			Rows     int64 `json:"rows"`
			Patterns []struct {
				Pattern    string  `json:"pattern"`
				EstRows    float64 `json:"est_rows"`
				ActualRows int64   `json:"actual_rows"`
			} `json:"patterns"`
		} `json:"explain"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &exRec); err != nil {
		t.Fatal(err)
	}
	if exRec.Explain.Rows != 50 || len(exRec.Explain.Patterns) != 1 {
		t.Fatalf("explain content: %+v", exRec.Explain)
	}
	if exRec.Explain.Patterns[0].ActualRows != 50 || exRec.Explain.Patterns[0].EstRows <= 0 {
		t.Fatalf("pattern profile: %+v", exRec.Explain.Patterns[0])
	}

	// Without the parameter the stream must not carry an explain line.
	_, body = post(t, ts.URL+"/v1/query", "application/sparql-query",
		"SELECT ?s WHERE { ?s a <"+exNS+"Cat> . }")
	if strings.Contains(body, `"explain"`) {
		t.Fatalf("explain leaked into a plain query stream:\n%s", body)
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	withZeroThresholdTracer(t)
	_, ts, _ := newTestServer(t, Config{})

	if resp, body := post(t, ts.URL+"/v1/insert", "text/plain",
		ntLine("felix", typeIRI(), "Cat")); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}
	if _, _, trailer := queryRows(t, ts.URL, "SELECT ?s WHERE { ?s a <"+exNS+"Cat> . }"); trailer["done"] != true {
		t.Fatalf("query trailer %v", trailer)
	}

	// The insert trace completes asynchronously (quiescence + view
	// visibility); wait for it before scraping the endpoint.
	waitTrace(t, func() bool {
		for _, tr := range trace.Default.Snapshot(false).Traces {
			if tr.Name == "http.insert" {
				return true
			}
		}
		return false
	})

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Enabled       bool  `json:"enabled"`
		RootsTotal    int64 `json:"roots_total"`
		RootsRetained int64 `json:"roots_retained"`
		Traces        []struct {
			Name  string `json:"name"`
			Spans int    `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	if !snap.Enabled || snap.RootsRetained == 0 || len(snap.Traces) == 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	names := map[string]bool{}
	for _, tr := range snap.Traces {
		names[tr.Name] = true
	}
	// Mixed traffic must have produced request roots for both routes.
	for _, want := range []string{"http.insert", "http.query"} {
		if !names[want] {
			t.Fatalf("no %q root retained; got %v", want, names)
		}
	}
}

func TestTraceparentAdoptedAndEmitted(t *testing.T) {
	withZeroThresholdTracer(t)
	_, ts, _ := newTestServer(t, Config{})

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest("POST", ts.URL+"/v1/insert", strings.NewReader(ntLine("felix", typeIRI(), "Cat")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(got, "00-0123456789abcdef0123456789abcdef-") {
		t.Fatalf("response traceparent %q does not keep the caller's trace id", got)
	}
	if strings.Contains(got, "00f067aa0ba902b7") {
		t.Fatalf("response traceparent %q reused the caller's span id", got)
	}

	// The retained request root must carry the adopted trace id.
	waitTrace(t, func() bool {
		for _, tr := range trace.Default.Snapshot(false).Traces {
			if tr.TraceID == "0123456789abcdef0123456789abcdef" {
				return true
			}
		}
		return false
	})
}

// TestInsertTraceHasPipelineChildren drives a durable-less ingest and
// asserts the request's own trace carries the write path's span tree:
// the batch, its store/routing children and the async lifecycle tails,
// all sharing the request's trace id.
func TestInsertTraceHasPipelineChildren(t *testing.T) {
	withZeroThresholdTracer(t)
	_, ts, _ := newTestServer(t, Config{})

	if resp, body := post(t, ts.URL+"/v1/insert", "text/plain",
		ntLine("Cat", slider.SubClassOf, "Animal")+ntLine("felix", typeIRI(), "Cat")); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}
	// A query forces a view refresh, which settles view.visible.
	queryRows(t, ts.URL, "SELECT ?s WHERE { ?s a <"+exNS+"Animal> . }")

	var insert *trace.TraceJSON
	waitTrace(t, func() bool {
		snap := trace.Default.Snapshot(false)
		for i := range snap.Traces {
			if snap.Traces[i].Name == "http.insert" {
				insert = &snap.Traces[i]
				return true
			}
		}
		return false
	})
	var walk func(s trace.SpanJSON, seen map[string]bool)
	walk = func(s trace.SpanJSON, seen map[string]bool) {
		seen[s.Name] = true
		for _, c := range s.Children {
			walk(c, seen)
		}
	}
	seen := map[string]bool{}
	walk(insert.Root, seen)
	for _, want := range []string{"http.insert", "insert.parse", "ingest.batch", "store.addbatch", "engine.route", "infer.rounds", "view.visible"} {
		if !seen[want] {
			t.Fatalf("insert trace lacks %q; spans seen: %v", want, seen)
		}
	}
}
