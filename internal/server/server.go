// Package server is Slider's production HTTP serving subsystem: batch
// ingest, snapshot-isolated streamed queries, and incremental retraction
// over a single shared Reasoner.
//
//	POST /v1/insert   N-Triples (or Turtle) body → AddBatch
//	POST /v1/query    SPARQL-like SELECT → streamed NDJSON bindings
//	POST /v1/retract  N-Triples body → delete-and-rederive
//	GET  /healthz     liveness + sticky-failure surface
//	GET  /stats       engine, store and serving counters (JSON)
//	GET  /metrics     the same registry in Prometheus text format
//	GET  /debug/traces retained slow/error flight traces (JSON)
//
// Queries execute against a read session (Reasoner.View): every answer
// is computed over one consistent snapshot — the closure of an
// acknowledged prefix of the writes — and a long scan never blocks
// writers. Each insert is one AddBatch call; the reasoner's writer lock
// group-commits concurrent ones (one WAL append and fsync per drain, see
// Reasoner.AddBatch). Admission control bounds in-flight requests,
// answering 503 when the server is overloaded or draining; Drain stops
// admission and waits for the tail.
//
// Every request is timed into the reasoner's metrics registry
// (slider_http_request_seconds{route=...}) and logged through the
// configured slog.Logger with method, route, status and duration. Each
// request is also a trace root (internal/trace), and an insert's batch —
// WAL append, store insertion, routing and the asynchronous inference
// and visibility tails — is recorded under it. An incoming W3C
// traceparent header is adopted as the trace id, the response carries
// the request's own traceparent, and slow or failed requests land in
// the flight recorder at /debug/traces. POST /v1/query additionally accepts ?explain=1,
// which appends an explain record (join order, per-pattern estimated
// vs actual rows, stage timings) to the NDJSON stream after the
// binding rows and before the done trailer.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	slider "repro"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/turtle"
)

// Config tunes the server. Zero values take the defaults.
type Config struct {
	// MaxInflight bounds concurrently admitted /v1/* requests; further
	// requests get 503 + Retry-After. Default 64.
	MaxInflight int
	// MaxBodyBytes caps a request body. Default 8 MiB.
	MaxBodyBytes int64
	// MaxResults caps the rows one query may stream, independent of its
	// LIMIT clause; hitting it sets "truncated" on the result trailer.
	// Default 10000.
	MaxResults int
	// QueryTimeout bounds a single query's wall clock, snapshot
	// acquisition included. Default 30s.
	QueryTimeout time.Duration
	// QueryConcurrency bounds how many queries execute simultaneously;
	// admitted queries beyond it queue (they do not 503). This is the
	// ingest-protection knob: snapshot isolation keeps queries off the
	// writers' locks, but on a saturated box they still compete for CPU
	// — capping concurrent execution caps that share. Default
	// max(1, GOMAXPROCS/2); negative = unlimited.
	QueryConcurrency int
	// RetractTimeout bounds one retraction's delete-and-rederive pass
	// (default 5m). The pass's analysis phases run concurrently with
	// ingest and are safely cancellable — a timeout (or client
	// disconnect, which the server-scoped context ignores) mid-pass
	// leaves the knowledge base untouched and healthy; only the short
	// final apply window is uninterruptible.
	RetractTimeout time.Duration
	// Logger receives one structured line per request (method, route,
	// status, duration). Default: discard.
	Logger *slog.Logger
}

func (c *Config) withDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 10000
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.QueryConcurrency == 0 {
		c.QueryConcurrency = runtime.GOMAXPROCS(0) / 2
		if c.QueryConcurrency < 1 {
			c.QueryConcurrency = 1
		}
	} else if c.QueryConcurrency < 0 {
		c.QueryConcurrency = c.MaxInflight
	}
	if c.RetractTimeout <= 0 {
		c.RetractTimeout = 5 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Server serves one Reasoner over HTTP. Create with New, mount as an
// http.Handler, and call Drain before closing the reasoner.
type Server struct {
	r   *slider.Reasoner
	cfg Config
	mux *http.ServeMux
	reg *obs.Registry

	inflight chan struct{}
	querySem chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup

	// Serving counters live in the reasoner's registry; /stats reads
	// them back with Load, so the JSON and Prometheus surfaces can
	// never disagree.
	nRequests  *obs.Counter
	nRejected  *obs.Counter
	nInserted  *obs.Counter
	nQueries   *obs.Counter
	nRows      *obs.Counter
	nRetracted *obs.Counter
}

// New builds a Server around the reasoner. Serving metrics register in
// the reasoner's registry (Reasoner.Metrics): a second Server over the
// same reasoner shares them.
func New(r *slider.Reasoner, cfg Config) *Server {
	cfg.withDefaults()
	reg := r.Metrics()
	s := &Server{
		r:        r,
		cfg:      cfg,
		reg:      reg,
		inflight: make(chan struct{}, cfg.MaxInflight),
		querySem: make(chan struct{}, cfg.QueryConcurrency),
		nRequests: reg.Counter("slider_server_requests_total",
			"HTTP requests reaching the /v1 admission gate."),
		nRejected: reg.Counter("slider_server_rejected_total",
			"Requests rejected by admission control (overloaded or draining)."),
		nInserted: reg.Counter("slider_server_inserted_statements_total",
			"Statements accepted by POST /v1/insert."),
		nQueries: reg.Counter("slider_server_queries_total",
			"Parsed queries admitted to execution."),
		nRows: reg.Counter("slider_server_query_rows_total",
			"Binding rows streamed to query clients."),
		nRetracted: reg.Counter("slider_server_retracted_statements_total",
			"Statements removed by POST /v1/retract."),
	}
	reg.GaugeFunc("slider_server_inflight",
		"Admitted /v1 requests currently in flight.",
		func() float64 { return float64(len(s.inflight)) })
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/insert", s.instrument("insert", s.admit(s.handleInsert)))
	mux.HandleFunc("POST /v1/query", s.instrument("query", s.admit(s.handleQuery)))
	mux.HandleFunc("POST /v1/retract", s.instrument("retract", s.admit(s.handleRetract)))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.instrument("traces", s.handleTraces))
	s.mux = mux
	return s
}

// statusRecorder captures the response status for metrics and logging.
// It forwards Flush so the query path's NDJSON streaming keeps working
// through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a route with the request timer
// (slider_http_request_seconds{route}), the per-status response counter
// (slider_http_responses_total{route,code}) and the structured access
// log.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("slider_http_request_seconds",
		"HTTP request latency by route.", nil, "route", route)
	const respName = "slider_http_responses_total"
	const respHelp = "HTTP responses by route and status code."
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Every request is a trace root. An incoming W3C traceparent is
		// adopted (the request joins the caller's trace id); the response
		// always carries this request's own traceparent so clients can
		// fish the flight recorder for it.
		ctx, sp := trace.StartRequest(r.Context(), "http."+route, r.Header.Get("traceparent"))
		r = r.WithContext(ctx)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if tp := sp.Traceparent(); tp != "" {
			sr.Header().Set("Traceparent", tp)
		}
		h(sr, r)
		sp.SetInt("status", int64(sr.status))
		if sr.status >= 500 {
			sp.Error(http.StatusText(sr.status))
		}
		sp.End()
		dur := time.Since(start)
		hist.ObserveDuration(dur)
		s.reg.Counter(respName, respHelp,
			"route", route, "code", strconv.Itoa(sr.status)).Inc()
		s.cfg.Logger.Info("request",
			"method", r.Method,
			"route", route,
			"status", sr.status,
			"dur_ms", float64(dur.Microseconds())/1000)
	}
}

// handleTraces renders the flight recorder: the retained slow/error
// trace trees, the per-tracer counters and knob settings, and — with
// ?recent=1 — the most recent completed spans regardless of retention.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = trace.Default.WriteJSON(w, r.URL.Query().Get("recent") == "1")
}

// handleMetrics renders the reasoner's registry — engine, store, WAL,
// checkpoint, view, retraction, query and serving instruments — in
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting /v1/* requests (503 "draining") and waits,
// bounded by ctx, for the admitted tail to finish — the graceful half of
// shutdown. The caller then closes the reasoner.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit is the admission-control middleware: it bounds in-flight
// requests, rejects early while draining, and tracks the tail for Drain.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.nRequests.Add(1)
		select {
		case s.inflight <- struct{}{}:
		default:
			s.nRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "overloaded: %d requests in flight", s.cfg.MaxInflight)
			return
		}
		s.wg.Add(1)
		defer func() {
			s.wg.Done()
			<-s.inflight
		}()
		// Checked after wg.Add so Drain's Wait covers every request that
		// slipped past the flag.
		if s.draining.Load() {
			s.nRejected.Add(1)
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readStatements parses the request body as N-Triples (default) or
// Turtle (Content-Type text/turtle, or ?format=ttl).
func (s *Server) readStatements(r *http.Request) ([]slider.Statement, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	ct := r.Header.Get("Content-Type")
	useTurtle := strings.HasPrefix(ct, "text/turtle") || r.URL.Query().Get("format") == "ttl"
	var read func() (slider.Statement, error)
	if useTurtle {
		read = turtle.NewReader(body).Read
	} else {
		read = ntriples.NewReader(body).Read
	}
	var out []slider.Statement
	for {
		st, err := read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	psp := trace.FromContext(r.Context()).Child("insert.parse")
	sts, err := s.readStatements(r)
	if err != nil {
		psp.Error(err.Error())
		psp.End()
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	psp.SetInt("statements", int64(len(sts)))
	psp.End()
	if len(sts) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"statements": 0})
		return
	}
	// Refuse before queueing for the writer: while the reasoner is
	// read-only every write fails anyway, and the pre-check answers with
	// the live backoff instead of making the client discover it the hard
	// way.
	if h := s.r.Health(); h.ReadOnly {
		s.refuseReadOnly(w, h)
		return
	}
	if _, err := s.r.AddBatchCtx(r.Context(), sts); err != nil {
		switch {
		case errors.Is(err, slider.ErrInvalidStatement):
			// Bad data is the client's 400, not an ingest 500.
			httpError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, slider.ErrDegraded):
			s.refuseReadOnly(w, s.r.Health())
		default:
			httpError(w, http.StatusInternalServerError, "ingest: %v", err)
		}
		return
	}
	s.nInserted.Add(int64(len(sts)))
	writeJSON(w, http.StatusOK, map[string]any{"statements": len(sts)})
}

// queryRequest is the optional JSON form of a query body; a plain-text
// body is taken as the query itself.
type queryRequest struct {
	Query string `json:"query"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	text := string(body)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var qr queryRequest
		if err := json.Unmarshal(body, &qr); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
		text = qr.Query
	}
	psp := trace.FromContext(r.Context()).Child("query.parse")
	q, err := query.ParseSelect(text)
	if err != nil {
		psp.Error(err.Error())
		psp.End()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	psp.End()
	s.nQueries.Add(1)
	var ex *query.Explain
	if r.URL.Query().Get("explain") == "1" {
		ex = &query.Explain{}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	// Execution gate: queries beyond QueryConcurrency queue here instead
	// of competing with ingest for CPU.
	select {
	case s.querySem <- struct{}{}:
		defer func() { <-s.querySem }()
	case <-ctx.Done():
		httpError(w, http.StatusServiceUnavailable, "query queue: %v", ctx.Err())
		return
	}
	view, err := s.r.View(ctx)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "snapshot: %v", err)
		return
	}
	defer view.Close()

	vars := q.Select
	if len(vars) == 0 {
		vars = q.Vars()
	}
	// Streamed NDJSON: a head line with the variables, one line per
	// binding as it is found, and a trailer with counts — rows flow to
	// the client while the join is still running.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	_ = enc.Encode(map[string]any{"vars": vars, "snapshot_triples": view.Len()})
	rows, truncated := 0, false
	err = view.SelectQueryFuncExplain(ctx, q, ex, func(b slider.Binding) bool {
		if ctx.Err() != nil {
			return false
		}
		row := make(map[string]string, len(b))
		for v, term := range b {
			row[v] = term.String()
		}
		if enc.Encode(row) != nil {
			return false // client went away
		}
		rows++
		if flusher != nil && rows%64 == 0 {
			flusher.Flush()
		}
		if rows >= s.cfg.MaxResults {
			truncated = true
			return false
		}
		return true
	})
	s.nRows.Add(int64(rows))
	if ex != nil {
		// The explain record is emitted only here, after the executor
		// returned — it can never interleave with binding rows, and the
		// done trailer stays the stream's last line.
		_ = enc.Encode(map[string]any{"explain": ex})
	}
	trailer := map[string]any{"done": true, "rows": rows, "truncated": truncated}
	if err != nil {
		trailer["error"] = err.Error()
	} else if cerr := ctx.Err(); cerr != nil {
		trailer["error"] = cerr.Error()
	}
	_ = enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) {
	sts, err := s.readStatements(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	// Detached from the request: a retraction acknowledged to one client
	// must not be abortable by that client's disconnect. Cancellation is
	// otherwise harmless — the pass's analysis phases are read-only and
	// leave the reasoner healthy — so the server-scoped RetractTimeout
	// is simply the work bound.
	if h := s.r.Health(); h.ReadOnly {
		s.refuseReadOnly(w, h)
		return
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), s.cfg.RetractTimeout)
	defer cancel()
	stats, err := s.r.Retract(ctx, sts...)
	if err != nil {
		if errors.Is(err, slider.ErrDegraded) {
			s.refuseReadOnly(w, s.r.Health())
			return
		}
		httpError(w, http.StatusInternalServerError, "retract: %v", err)
		return
	}
	s.nRetracted.Add(int64(stats.Retracted))
	writeJSON(w, http.StatusOK, retractJSON(stats))
}

// retractJSON renders one DRed pass's statistics — the shared encoder
// behind the /v1/retract response and the /stats retraction block.
func retractJSON(rs slider.RetractStats) map[string]any {
	return map[string]any{
		"retracted":    rs.Retracted,
		"suspects":     rs.Suspects,
		"overdeleted":  rs.Overdeleted,
		"rederived":    rs.Rederived,
		"rounds":       rs.Rounds,
		"validated":    rs.Validated,
		"prepare_us":   rs.PrepareMicros,
		"exclusive_us": rs.ExclusiveMicros,
		"two_phase":    rs.TwoPhase,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	staleness := s.r.ViewStaleness().Milliseconds()
	h := s.r.Health()
	if h.Status == slider.HealthOK && s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "staleness_ms": staleness,
		})
		return
	}
	body := map[string]any{
		"status":       string(h.Status),
		"triples":      s.r.Len(),
		"staleness_ms": staleness,
	}
	if h.Cause != "" {
		body["error"] = h.Cause
	}
	if !h.Since.IsZero() {
		// Since lets an operator distinguish a fresh blip from a
		// long-stuck degradation at a glance.
		body["since"] = h.Since.UTC().Format(time.RFC3339)
	}
	if h.ReadOnly {
		body["read_only"] = true
	}
	if h.RetryAfter > 0 {
		body["retry_after_s"] = retryAfterSeconds(h.RetryAfter)
	}
	code := http.StatusOK
	if h.Status != slider.HealthOK {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// retryAfterSeconds renders a backoff as whole Retry-After seconds,
// rounding up and never below 1 — "Retry-After: 0" invites an
// immediate stampede.
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// refuseReadOnly answers a mutation with 503 + Retry-After while the
// knowledge base is read-only (degraded or failed). The Retry-After is
// the recovery loop's current backoff — the soonest a retry could
// plausibly succeed.
func (s *Server) refuseReadOnly(w http.ResponseWriter, h slider.Health) {
	w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(h.RetryAfter), 10))
	cause := h.Cause
	if cause == "" {
		cause = "knowledge base is read-only"
	}
	httpError(w, http.StatusServiceUnavailable, "%s", cause)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es := s.r.Stats()
	ss := s.r.Store().Stats()
	bi := slider.BuildInfo()
	out := map[string]any{
		"triples":  s.r.Len(),
		"fragment": s.r.Fragment().Name(),
		"build": map[string]any{
			"version":    bi.Version,
			"go_version": bi.GoVersion,
			"revision":   bi.Revision,
		},
		"engine": map[string]any{"inferred": es.Inferred, "duplicates": es.Duplicates},
		"store": map[string]any{
			"predicates":    ss.Predicates,
			"max_partition": ss.MaxPartition,
			"runs":          ss.Runs,
			"run_pairs":     ss.RunPairs,
			"overlay_pairs": ss.OverlayPairs,
			"tombstones":    ss.Tombstones,
			"compaction": map[string]any{
				"merges":       ss.Compaction.Merges,
				"purges":       ss.Compaction.Purges,
				"pairs_merged": ss.Compaction.PairsMerged,
			},
		},
		"dictionary": s.r.Dictionary().Len(),
		"server": map[string]any{
			"requests":             s.nRequests.Load(),
			"rejected":             s.nRejected.Load(),
			"inserted_statements":  s.nInserted.Load(),
			"insert_flushes":       s.reg.GetCounter("slider_ingest_flushes_total").Load(),
			"coalesced_requests":   s.reg.GetCounter("slider_ingest_coalesced_batches_total").Load(),
			"queries":              s.nQueries.Load(),
			"query_rows":           s.nRows.Load(),
			"retracted_statements": s.nRetracted.Load(),
			"inflight":             len(s.inflight),
			"max_inflight":         s.cfg.MaxInflight,
			"query_concurrency":    s.cfg.QueryConcurrency,
			"draining":             s.draining.Load(),
		},
	}
	// Last completed DRed pass, when one has run: how suspect-local the
	// analysis was and how long writers were actually excluded.
	if rs, ok := s.r.LastRetract(); ok {
		out["retraction"] = retractJSON(rs)
	}
	writeJSON(w, http.StatusOK, out)
}
