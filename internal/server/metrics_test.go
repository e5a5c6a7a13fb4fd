package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	slider "repro"
	"repro/internal/store"
)

// Prometheus text-format (version 0.0.4) line grammar. Label values in
// our metrics never contain escapes, but the pattern admits the legal
// ones so a future escaped value does not fail the scrape test.
var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) \S.*$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
		`(?:\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"` +
		`(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*)\})? (\S+)$`)
)

// scrape GETs /metrics and strictly parses every line: each must be a
// valid HELP, TYPE or sample line; HELP/TYPE appear exactly once per
// family with HELP first; every sample belongs to the family declared
// directly above it (with the _bucket/_sum/_count series admitted for
// histograms); every value parses as a Prometheus float and is not NaN.
// Returns samples keyed by `name{labels}` plus each family's type.
func scrape(t *testing.T, url string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content-type %q, want the 0.0.4 text format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples = make(map[string]float64)
	types = make(map[string]string)
	helped := make(map[string]bool)
	family := ""
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue // trailing newline only; exposition has no blank lines
		}
		if m := helpRe.FindStringSubmatch(line); m != nil {
			if helped[m[1]] {
				t.Fatalf("line %d: duplicate HELP for %s", i+1, m[1])
			}
			helped[m[1]] = true
			family = m[1]
			continue
		}
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if m[1] != family {
				t.Fatalf("line %d: TYPE %s without preceding HELP", i+1, m[1])
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid exposition line: %q", i+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		base := name
		if types[family] == "histogram" {
			base = strings.TrimSuffix(base, "_bucket")
			base = strings.TrimSuffix(base, "_sum")
			base = strings.TrimSuffix(base, "_count")
		}
		if base != family {
			t.Fatalf("line %d: sample %s outside its family %s", i+1, name, family)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", i+1, valStr, err)
		}
		if math.IsNaN(v) {
			t.Fatalf("line %d: NaN sample %s", i+1, name)
		}
		key := name
		if labels != "" {
			key += "{" + labels + "}"
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %s", i+1, key)
		}
		samples[key] = v
	}
	return samples, types
}

// TestMetricsScrape drives insert/query/retract through a durable
// reasoner and validates the full /metrics exposition: strict
// line-by-line format, presence of every instrumented family across the
// ingest→infer→serve pipeline, nonzero activity counts, and counter
// monotonicity across scrapes.
func TestMetricsScrape(t *testing.T) {
	r, err := slider.Open(t.TempDir(), slider.RhoDF,
		slider.WithViewMaxAge(-1))
	if err != nil {
		t.Fatal(err)
	}
	s := New(r, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		r.Close(context.Background())
	})

	doc := ntLine("Cat", slider.SubClassOf, "Animal") +
		ntLine("felix", typeIRI(), "Cat") +
		ntLine("tom", typeIRI(), "Cat")
	if resp, body := post(t, ts.URL+"/v1/insert", "application/n-triples", doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}
	if _, rows, _ := queryRows(t, ts.URL,
		`SELECT ?x WHERE { ?x a <http://example.org/Animal> . }`); len(rows) != 2 {
		t.Fatalf("query saw %d rows, want 2", len(rows))
	}
	if resp, body := post(t, ts.URL+"/v1/retract", "application/n-triples",
		ntLine("felix", typeIRI(), "Cat")); resp.StatusCode != http.StatusOK {
		t.Fatalf("retract status %d: %s", resp.StatusCode, body)
	}

	first, types := scrape(t, ts.URL)

	// Every instrumented subsystem exposes its family, with the right type.
	wantFamilies := map[string]string{
		"slider_ingest_seconds":         "histogram",
		"slider_ingest_batch_triples":   "histogram",
		"slider_ingest_triples_total":   "counter",
		"slider_engine_inferred_total":  "counter",
		"slider_wal_append_seconds":     "histogram",
		"slider_wal_fsync_seconds":      "histogram",
		"slider_wal_appends_total":      "counter",
		"slider_wal_live_bytes":         "gauge",
		"slider_checkpoint_seconds":     "histogram",
		"slider_view_refresh_seconds":   "histogram",
		"slider_view_staleness_seconds": "gauge",
		"slider_retract_seconds":        "histogram",
		"slider_retractions_total":      "counter",
		"slider_compaction_seconds":     "histogram",
		"slider_compaction_backlog":     "gauge",
		"slider_query_plan_seconds":     "histogram",
		"slider_query_plan_cost":        "histogram",
		"slider_query_exec_seconds":     "histogram",
		"slider_query_total":            "counter",
		"slider_http_request_seconds":   "histogram",
		"slider_http_responses_total":   "counter",
		"slider_server_requests_total":  "counter",
		"slider_server_inflight":        "gauge",
		"slider_store_triples":          "gauge",
	}
	for fam, typ := range wantFamilies {
		if got, ok := types[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		} else if got != typ {
			t.Errorf("family %s has type %s, want %s", fam, got, typ)
		}
	}

	// The workload actually moved the needles.
	for key, min := range map[string]float64{
		"slider_ingest_seconds_count":                         1,
		"slider_ingest_triples_total":                         3,
		"slider_engine_inferred_total":                        1, // Cat⊂Animal types both cats
		"slider_wal_appends_total":                            1,
		"slider_retract_seconds_count{phase=\"apply\"}":       1,
		"slider_retractions_total":                            1,
		"slider_query_total":                                  1,
		"slider_query_exec_seconds_count":                     1,
		"slider_http_request_seconds_count{route=\"insert\"}": 1,
		"slider_http_request_seconds_count{route=\"query\"}":  1,
		"slider_server_inserted_statements_total":             3,
	} {
		if first[key] < min {
			t.Errorf("%s = %v, want >= %v", key, first[key], min)
		}
	}

	// Counters (and histogram series — cumulative by construction) only
	// ever go up: drive more traffic, rescrape, compare every sample.
	if resp, body := post(t, ts.URL+"/v1/insert", "application/n-triples",
		ntLine("rex", typeIRI(), "Animal")); resp.StatusCode != http.StatusOK {
		t.Fatalf("second insert status %d: %s", resp.StatusCode, body)
	}
	if _, rows, _ := queryRows(t, ts.URL,
		`SELECT ?x WHERE { ?x a <http://example.org/Animal> . }`); len(rows) != 2 {
		t.Fatalf("second query saw %d rows, want 2", len(rows))
	}
	second, _ := scrape(t, ts.URL)
	monotone := 0
	for key, was := range first {
		fam := key
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		switch {
		case types[fam] == "counter":
		case types[fam] == "" && (strings.HasSuffix(fam, "_bucket") ||
			strings.HasSuffix(fam, "_sum") || strings.HasSuffix(fam, "_count")):
			// histogram series: keyed under the suffixed name
		default:
			continue // gauges may move either way
		}
		now, ok := second[key]
		if !ok {
			t.Errorf("sample %s disappeared between scrapes", key)
			continue
		}
		if now < was {
			t.Errorf("counter %s went backwards: %v -> %v", key, was, now)
		}
		monotone++
	}
	if monotone < 50 {
		t.Fatalf("only %d monotone samples compared; scrape looks incomplete", monotone)
	}
}

// TestHealthzDegradedOnCompactionPanic: a background-compaction panic
// must flip /healthz to 503 "degraded" (serving still works) while the
// healthy response carries the staleness_ms field.
func TestHealthzDegradedOnCompactionPanic(t *testing.T) {
	store.SetCompactTestHook(func() { panic("injected compaction failure") })
	defer store.SetCompactTestHook(nil)
	_, ts, r := newTestServer(t, Config{})

	status, health := getHealth(t, ts.URL)
	if status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("fresh healthz = %d %v", status, health)
	}
	if _, ok := health["staleness_ms"]; !ok {
		t.Fatalf("healthy response missing staleness_ms: %v", health)
	}

	// Enough batches on one predicate to make a merge window due and
	// spawn the (hooked, panicking) worker: each becomes one run.
	for b := 0; b < 8; b++ {
		var doc strings.Builder
		for i := b * 1000; i < (b+1)*1000; i++ {
			fmt.Fprintf(&doc, "<%sm%d> <%s> <%sThing> .\n", exNS, i, typeIRI(), exNS)
		}
		if resp, body := post(t, ts.URL+"/v1/insert", "application/n-triples", doc.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert status %d: %s", resp.StatusCode, body)
		}
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		status, health = getHealth(t, ts.URL)
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never degraded; last: %d %v", status, health)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if health["status"] != "degraded" {
		t.Fatalf("healthz status %q, want degraded: %v", health["status"], health)
	}
	if msg, _ := health["error"].(string); !strings.Contains(msg, "injected compaction failure") {
		t.Fatalf("degraded error %q does not carry the panic value", health["error"])
	}
	if _, ok := health["staleness_ms"]; !ok {
		t.Fatalf("degraded response missing staleness_ms: %v", health)
	}

	// Degraded, not down: reads and writes still succeed.
	if resp, body := post(t, ts.URL+"/v1/insert", "application/n-triples",
		ntLine("late", typeIRI(), "Thing")); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-degrade insert status %d: %s", resp.StatusCode, body)
	}
	if _, rows, _ := queryRows(t, ts.URL,
		`SELECT ?x WHERE { ?x a <http://example.org/Thing> . } LIMIT 5`); len(rows) == 0 {
		t.Fatal("post-degrade query returned no rows")
	}
}

func getHealth(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}
