// Package trace is Slider's flight-path tracer: request-scoped spans
// that follow one operation — an insert flight, a query, a view
// refresh, a compaction pass — across the pipeline's layers, in the
// style of internal/obs: zero dependencies, allocation-light, and a
// global kill switch that elides even the clock reads.
//
// trace.Start(ctx, name) opens a span (a child when ctx already
// carries one, a new root otherwise) and returns a derived context;
// Span.Child attaches an asynchronous child without a context. Every
// Span method is nil-safe, so call sites never branch on the switch:
// when tracing is disabled Start returns a nil span and the whole
// path costs one atomic load.
//
// A trace stays open until every span in it — including asynchronous
// children that outlive the root, such as a batch's time-to-inference
// -quiescence and time-to-view-visibility spans — has ended. Completed
// traces feed the flight recorder (see recorder.go): roots slower than
// a per-family adaptive threshold, or that ended in error, are retained
// in a bounded ring served as JSON at GET /debug/traces.
//
// Root spans carry W3C trace context: StartRequest adopts the trace id
// of an incoming `traceparent` header and Span.Traceparent renders the
// outgoing one, so a Slider flight can join a caller's distributed
// trace.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// disabled is the global kill switch. The zero value means tracing is
// ON: a freshly linked binary traces by default, and sliderd -notrace
// and the benchmark opt out explicitly.
var disabled atomic.Bool

// Enabled reports whether tracing is collecting spans.
func Enabled() bool { return !disabled.Load() }

// SetEnabled flips tracing globally. Spans already open keep working
// either way: ending them is always safe, their clock reads just stop.
func SetEnabled(on bool) { disabled.Store(!on) }

// now is the trace clock: the zero time when tracing is disabled, so
// span paths never pay the clock read (the trace-package analog of
// obs.NowIfEnabled). Durations degrade gracefully when the switch
// flips mid-span: a zero endpoint yields a zero duration, never a
// bogus one.
func now() time.Time {
	if disabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// idState seeds span/trace id generation; ids are a splitmix64 stream
// over an atomic counter, seeded from the wall clock at process start
// so two daemons don't mint colliding trace ids.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

// nextID returns a non-zero pseudo-random 64-bit id (splitmix64).
func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Str   string
	Num   int64
	isNum bool
}

// String builds a string-valued attribute.
func String(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int builds an integer-valued attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Num: val, isNum: true} }

// value renders the attribute's value for JSON export.
func (a Attr) value() any {
	if a.isNum {
		return a.Num
	}
	return a.Str
}

// Span is one timed operation in a trace. The zero of *Span (nil) is a
// valid no-op span: every method checks, so disabled-tracing call sites
// need no branches.
type Span struct {
	tr               *Tracer
	root             *Span
	name             string
	traceHi, traceLo uint64
	id               uint64
	parent           uint64 // parent span id; 0 for a local root
	start            time.Time

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	end      time.Time
	ended    bool
	failed   bool

	// Root-only trace state (accessed via s.root on every span):
	// open counts spans in the trace not yet ended; the End that
	// drives it to zero completes the trace. lastEnd tracks the
	// latest span end (UnixNano) so a flight's recorded duration
	// covers asynchronous children that outlive the root span.
	open     atomic.Int64
	lastEnd  atomic.Int64
	errAny   atomic.Bool
	finished atomic.Bool
	reason   string        // why the flight recorder retained it
	flight   time.Duration // full-flight duration at retention time
}

// ctxKey carries the current span in a context.
type ctxKey struct{}

// FromContext returns the span carried by ctx, or nil (also nil when
// tracing is disabled, so downstream Child calls stay free).
func FromContext(ctx context.Context) *Span {
	if disabled.Load() {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextWith returns ctx carrying s (a no-op for a nil span).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// Start opens a span named name: a child of the span carried by ctx,
// or a new trace root when ctx has none. The returned context carries
// the new span. When tracing is disabled it returns (ctx, nil)
// untouched — one atomic load, no clock read, no allocation beyond
// any attrs the caller built.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if disabled.Load() {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	s := Default.newSpan(parent, name, attrs)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartRoot opens a context-free root span — for background work
// (compaction passes, say) that is its own trace.
func StartRoot(name string, attrs ...Attr) *Span {
	if disabled.Load() {
		return nil
	}
	return Default.newSpan(nil, name, attrs)
}

// StartRequest opens a root span for an incoming request. When
// traceparent holds a valid W3C trace context header
// ("00-<32 hex trace id>-<16 hex parent id>-<2 hex flags>") the root
// adopts its trace id and remote parent, so the flight joins the
// caller's distributed trace; otherwise a fresh trace id is minted.
// The span name is derived from the serving layer's route table, not
// spelled at call sites, so it is exempt from the spannames checker.
func StartRequest(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if disabled.Load() {
		return ctx, nil
	}
	s := Default.newSpan(nil, name, nil)
	if hi, lo, parent, ok := parseTraceparent(traceparent); ok {
		s.traceHi, s.traceLo, s.parent = hi, lo, parent
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Child attaches a child span without a context — the form used for
// asynchronous work registered under a parent (inference quiescence,
// view visibility) and for tight pipeline stages where threading a
// derived context through existing signatures isn't worth it. Nil-safe.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil || disabled.Load() {
		return nil
	}
	return s.tr.newSpan(s, name, attrs)
}

// newSpan allocates and links a span. A child of an already-finished
// trace (a straggler racing the last End) becomes a fresh root that
// keeps the parent's trace id, so the late span is still recorded and
// the completed trace's accounting is never reopened.
func (tr *Tracer) newSpan(parent *Span, name string, attrs []Attr) *Span {
	s := &Span{tr: tr, name: name, id: nextID(), start: now()}
	if len(attrs) > 0 {
		s.attrs = attrs
	}
	root := (*Span)(nil)
	if parent != nil && !parent.root.finished.Load() {
		root = parent.root
	}
	if root != nil {
		s.root = root
		s.parent = parent.id
		s.traceHi, s.traceLo = parent.traceHi, parent.traceLo
		root.open.Add(1)
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
		return s
	}
	s.root = s
	s.open.Store(1)
	if parent != nil {
		s.traceHi, s.traceLo = parent.traceHi, parent.traceLo
		s.parent = parent.id
	} else {
		s.traceHi, s.traceLo = nextID(), nextID()
	}
	return s
}

// End closes the span. The End that closes the trace's last open span
// hands the root to the flight recorder. Ending twice is a bug — the
// second call is ignored (asserted under the slider_invariants tag).
// Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		assertEndOnce(s.name)
		return
	}
	s.ended = true
	s.end = t
	failed := s.failed
	s.mu.Unlock()
	if failed {
		s.root.errAny.Store(true)
	}
	if !t.IsZero() {
		ns := t.UnixNano()
		for {
			old := s.root.lastEnd.Load()
			if ns <= old || s.root.lastEnd.CompareAndSwap(old, ns) {
				break
			}
		}
	}
	s.tr.record(s, t, failed)
	if n := s.root.open.Add(-1); n == 0 {
		s.tr.finishTrace(s.root)
	} else {
		assertOpenNonNegative(n)
	}
}

// SetStr annotates the span with a string attribute. Non-variadic so
// hot paths pay no slice allocation when the span is nil. Nil-safe.
func (s *Span) SetStr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, String(key, val))
	s.mu.Unlock()
}

// SetInt annotates the span with an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Int(key, val))
	s.mu.Unlock()
}

// Error marks the span failed — its trace is always retained by the
// flight recorder — and records msg as an "error" attribute. Nil-safe.
func (s *Span) Error(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.failed = true
	if msg != "" {
		s.attrs = append(s.attrs, String("error", msg))
	}
	s.mu.Unlock()
	s.root.errAny.Store(true)
}

// Name returns the span's family name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID renders the 128-bit trace id as 32 hex digits ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x%016x", s.traceHi, s.traceLo)
}

// Traceparent renders the span as an outgoing W3C traceparent header
// ("" for nil), marking the trace sampled.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("00-%016x%016x-%016x-01", s.traceHi, s.traceLo, s.id)
}

// parseTraceparent parses a W3C traceparent header. Only version 00 is
// accepted; an all-zero trace id is invalid per spec.
func parseTraceparent(h string) (hi, lo, parent uint64, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return 0, 0, 0, false
	}
	var err error
	if hi, err = strconv.ParseUint(h[3:19], 16, 64); err != nil {
		return 0, 0, 0, false
	}
	if lo, err = strconv.ParseUint(h[19:35], 16, 64); err != nil {
		return 0, 0, 0, false
	}
	if parent, err = strconv.ParseUint(h[36:52], 16, 64); err != nil {
		return 0, 0, 0, false
	}
	if _, err = strconv.ParseUint(h[53:55], 16, 8); err != nil {
		return 0, 0, 0, false
	}
	if hi == 0 && lo == 0 {
		return 0, 0, 0, false
	}
	return hi, lo, parent, true
}
