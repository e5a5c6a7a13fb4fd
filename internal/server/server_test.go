package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	slider "repro"
	"repro/internal/vfs"
)

const exNS = "http://example.org/"

// ntLine renders one all-IRI N-Triples statement.
func ntLine(s, p, o string) string {
	return fmt.Sprintf("<%s%s> <%s> <%s%s> .\n", exNS, s, p, exNS, o)
}

func typeIRI() string { return slider.Type }

// newTestServer builds an in-memory retraction-enabled reasoner that
// refreshes its read snapshot on every change (so tests see their own
// writes immediately) behind an httptest server.
func newTestServer(t *testing.T, cfg Config, opts ...slider.Option) (*Server, *httptest.Server, *slider.Reasoner) {
	t.Helper()
	opts = append([]slider.Option{slider.WithViewMaxAge(-1)}, opts...)
	r := slider.New(slider.RhoDF, opts...)
	s := New(r, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		r.Close(context.Background())
	})
	return s, ts, r
}

func post(t *testing.T, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// queryRows posts a query and decodes the NDJSON response into the head,
// binding rows and trailer.
func queryRows(t *testing.T, url, q string) (head map[string]any, rows []map[string]string, trailer map[string]any) {
	t.Helper()
	resp, body := post(t, url+"/v1/query", "application/sparql-query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("NDJSON response too short: %q", body)
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatalf("head line: %v (%q)", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer line: %v (%q)", err, lines[len(lines)-1])
	}
	for _, ln := range lines[1 : len(lines)-1] {
		var row map[string]string
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("row line: %v (%q)", err, ln)
		}
		rows = append(rows, row)
	}
	return head, rows, trailer
}

func TestInsertQueryRetractEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// Insert a schema and members; inference closes over subClassOf.
	doc := ntLine("Cat", slider.SubClassOf, "Animal") +
		ntLine("felix", typeIRI(), "Cat") +
		ntLine("tom", typeIRI(), "Cat")
	resp, body := post(t, ts.URL+"/v1/insert", "application/n-triples", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}
	var ins map[string]any
	if err := json.Unmarshal([]byte(body), &ins); err != nil {
		t.Fatal(err)
	}
	if ins["statements"].(float64) != 3 {
		t.Fatalf("insert ack %v, want 3 statements", ins)
	}

	// The closure is queryable: both cats are Animals.
	head, rows, trailer := queryRows(t, ts.URL,
		`SELECT ?x WHERE { ?x a <http://example.org/Animal> . }`)
	if vars := head["vars"].([]any); len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("head vars = %v", head)
	}
	if len(rows) != 2 || trailer["rows"].(float64) != 2 || trailer["truncated"].(bool) {
		t.Fatalf("query got %d rows, trailer %v", len(rows), trailer)
	}

	// LIMIT is honoured server-side.
	_, rows, trailer = queryRows(t, ts.URL,
		`SELECT ?x WHERE { ?x a <http://example.org/Animal> . } LIMIT 1`)
	if len(rows) != 1 || trailer["rows"].(float64) != 1 {
		t.Fatalf("LIMIT 1 got %d rows", len(rows))
	}

	// Retract felix: DRed removes the derived Animal typing too.
	resp, body = post(t, ts.URL+"/v1/retract", "application/n-triples",
		ntLine("felix", typeIRI(), "Cat"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retract status %d: %s", resp.StatusCode, body)
	}
	var ret map[string]any
	if err := json.Unmarshal([]byte(body), &ret); err != nil {
		t.Fatal(err)
	}
	if ret["retracted"].(float64) != 1 {
		t.Fatalf("retract ack %v", ret)
	}
	_, rows, _ = queryRows(t, ts.URL,
		`SELECT ?x WHERE { ?x a <http://example.org/Animal> . }`)
	if len(rows) != 1 || !strings.Contains(rows[0]["x"], "tom") {
		t.Fatalf("after retract: %v", rows)
	}
}

func TestInsertTurtle(t *testing.T) {
	_, ts, r := newTestServer(t, Config{})
	doc := `@prefix ex: <http://example.org/> .
ex:a a ex:T ; ex:knows ex:b .`
	resp, body := post(t, ts.URL+"/v1/insert", "text/turtle", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("turtle insert status %d: %s", resp.StatusCode, body)
	}
	if err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(slider.NewStatement(
		slider.IRI(exNS+"a"), slider.IRI(exNS+"knows"), slider.IRI(exNS+"b"))) {
		t.Fatal("turtle statement missing")
	}
}

func TestBadInputs(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if resp, _ := post(t, ts.URL+"/v1/insert", "application/n-triples", "not ntriples"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad insert: status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/query", "text/plain", "SELECT nonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/query", "application/json", `{"query": }`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON query: status %d", resp.StatusCode)
	}
}

// TestRetractWithoutOption retracts over HTTP on a reasoner built with
// no option at all: every reasoner can retract.
func TestRetractWithoutOption(t *testing.T) {
	r := slider.New(slider.RhoDF, slider.WithViewMaxAge(-1))
	s := New(r, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer r.Close(context.Background())
	line := ntLine("x", typeIRI(), "T")
	if resp, b := post(t, ts.URL+"/v1/insert", "", line); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, b)
	}
	resp, b := post(t, ts.URL+"/v1/retract", "application/n-triples", line)
	if resp.StatusCode != http.StatusOK || !strings.Contains(b, `"retracted":1`) {
		t.Fatalf("retract: status %d, body %s; want 200 with one retracted", resp.StatusCode, b)
	}
}

func TestQueryMaxResultsTruncates(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxResults: 5})
	var doc strings.Builder
	for i := 0; i < 20; i++ {
		doc.WriteString(ntLine(fmt.Sprintf("m%d", i), typeIRI(), "T"))
	}
	if resp, b := post(t, ts.URL+"/v1/insert", "", doc.String()); resp.StatusCode != 200 {
		t.Fatalf("insert: %d %s", resp.StatusCode, b)
	}
	_, rows, trailer := queryRows(t, ts.URL,
		`SELECT ?x WHERE { ?x a <http://example.org/T> . }`)
	if len(rows) != 5 || !trailer["truncated"].(bool) {
		t.Fatalf("MaxResults: %d rows, trailer %v", len(rows), trailer)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxInflight: 1})
	// Occupy the only slot, then any /v1 request is rejected with 503.
	s.inflight <- struct{}{}
	resp, body := post(t, ts.URL+"/v1/insert", "", ntLine("a", typeIRI(), "T"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded insert: status %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// healthz is not gated.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz while overloaded: %d", hr.StatusCode)
	}
	<-s.inflight
	if resp, _ := post(t, ts.URL+"/v1/insert", "", ntLine("a", typeIRI(), "T")); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
}

func TestDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/insert", "", ntLine("a", typeIRI(), "T"))
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("post-drain insert: status %d body %s", resp.StatusCode, body)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", hr.StatusCode)
	}
}

func TestStats(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/insert", "", ntLine("a", typeIRI(), "T"))
	queryRows(t, ts.URL, `SELECT ?x WHERE { ?x a <http://example.org/T> . }`)
	st := getStats(t, ts.URL)
	srv := st["server"].(map[string]any)
	if srv["requests"].(float64) < 2 || srv["inserted_statements"].(float64) != 1 || srv["queries"].(float64) != 1 {
		t.Fatalf("stats: %v", srv)
	}
	if st["fragment"] != "rhodf" {
		t.Fatalf("fragment: %v", st["fragment"])
	}
}

// gateFS holds the next file Sync once armed, so a test can keep a
// durable reasoner's writer lock held mid-append.
type gateFS struct {
	vfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (f gateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// queuedWriters counts goroutines parked on a reasoner's writer lock
// inside its ingest funnel: batches already queued for the next drain.
func queuedWriters() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*Mutex).Lock") && strings.Contains(g, "(*Reasoner).addTriples") {
			n++
		}
	}
	return n
}

// TestCoalescing pins group commit over HTTP deterministically: while one
// insert holds the writer lock in its fsync, two more queue behind it,
// and the holder that takes the lock next logs and applies both in one
// drain — one WAL append for the pair, read back through /stats.
func TestCoalescing(t *testing.T) {
	g := &gateFS{FS: vfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
	_, ts, r := newTestServer(t, Config{}, slider.WithDurability(t.TempDir()),
		slider.WithVFS(g), slider.WithFsync(), slider.WithCheckpointEvery(-1))
	insert := func(name string, done chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/insert", "", strings.NewReader(ntLine(name, typeIRI(), "T")))
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}
	// Released on every path: a failing test must not leave insert a
	// holding the writer lock while cleanup closes the reasoner.
	release := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(release)
	done := make(chan int, 3)
	g.armed.Store(true)
	go insert("a", done)
	<-g.entered // a holds the writer lock, inside its fsync
	go insert("b", done)
	go insert("c", done)
	deadline := time.Now().Add(10 * time.Second)
	for queuedWriters() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("b and c never queued for the writer lock")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for i := 0; i < 3; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("insert status %d", code)
		}
	}
	srv := getStats(t, ts.URL)["server"].(map[string]any)
	if srv["insert_flushes"].(float64) != 2 || srv["coalesced_requests"].(float64) != 2 {
		t.Fatalf("insert_flushes=%v coalesced_requests=%v, want 2/2", srv["insert_flushes"], srv["coalesced_requests"])
	}
	if n := r.Metrics().GetCounter("slider_wal_appends_total").Load(); n != 2 {
		t.Fatalf("slider_wal_appends_total = %d, want 2 (a alone, then b and c together)", n)
	}
}

// getStats fetches and decodes /stats.
func getStats(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
