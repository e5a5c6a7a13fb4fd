// Package obs is Slider's zero-dependency metrics subsystem: atomic
// counters and gauges, fixed-bucket latency histograms with lock-free
// recording on the hot path, and a named registry that renders
// everything in the Prometheus text exposition format (served by the
// HTTP layer at GET /metrics).
//
// Metrics are cheap enough to leave on in production — recording is one
// atomic load (the global enable flag) plus one or two atomic adds —
// and every instrument is registered under a stable name, so the
// serving layer's /stats endpoint and the /metrics exposition read the
// same counters and cannot drift.
//
// The package has no opinions about metric ownership: a Registry is an
// ordinary value, and the facade gives every Reasoner its own so
// concurrent knowledge bases in one process (tests, embedded use) do
// not share counters.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0; negative deltas are
// ignored so a counter can never move backwards).
func (c *Counter) Add(n int64) {
	if n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) write(w *strings.Builder, name, labels string) {
	sample(w, name, labels, float64(c.v.Load()))
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set sets the gauge.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w *strings.Builder, name, labels string) {
	sample(w, name, labels, g.Load())
}

// funcMetric is a counter or gauge whose value is computed at scrape
// time — the bridge for subsystems that already keep their own atomic
// counters (the engine, the store) so /metrics reads the very same
// numbers without double bookkeeping.
type funcMetric struct {
	fn func() float64
}

func (f *funcMetric) write(w *strings.Builder, name, labels string) {
	sample(w, name, labels, f.fn())
}

// metric is anything a registry can expose.
type metric interface {
	write(w *strings.Builder, name, labels string)
}

// family is every instrument sharing one metric name (label variants).
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"

	mu      sync.Mutex
	order   []string // label strings in registration order
	metrics map[string]metric
}

// Registry is a named set of metrics. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use, and the
// instrument constructors are get-or-create: registering the same name
// and label set twice returns the same instrument, which is what lets
// several subsystems share a counter without coordination.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry, for code without a natural
// owner. The facade gives each Reasoner its own registry instead.
var Default = NewRegistry()

// lookup returns the family, creating it with the given type on first
// registration and panicking when a name is re-registered under a
// different type or with different help text — that is a programming
// error, not a runtime condition.
func (r *Registry) lookup(name, help, typ string) *family {
	mustValidName(name)
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, typ: typ, metrics: make(map[string]metric)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// get returns the family's instrument for the label set, creating it
// with mk on first use.
func (f *family) get(labels string, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.metrics[labels]
	if m == nil {
		m = mk()
		f.metrics[labels] = m
		f.order = append(f.order, labels)
	}
	return m
}

// Counter registers (or retrieves) a counter. Labels are alternating
// key/value pairs: Counter("slider_http_requests_total", help,
// "route", "query", "code", "200").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.lookup(name, help, "counter").get(labelString(labels), func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a plain counter", name))
	}
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotonic and safe for concurrent use. Re-registering
// the same name and labels replaces the function (the newest owner
// wins), so a rebuilt subsystem can re-point the bridge at itself.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, "counter", fn, labels)
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m := r.lookup(name, help, "gauge").get(labelString(labels), func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a plain gauge", name))
	}
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. Re-registering replaces the function, as for CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, "gauge", fn, labels)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64, labels []string) {
	f := r.lookup(name, help, typ)
	ls := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.metrics[ls].(*funcMetric); ok {
		m.fn = fn
		return
	}
	if f.metrics[ls] != nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a non-func %s", name, typ))
	}
	f.metrics[ls] = &funcMetric{fn: fn}
	f.order = append(f.order, ls)
}

// Histogram registers (or retrieves) a histogram with the given bucket
// upper bounds (nil means DurationBuckets). Re-registering with
// different bounds panics: the instrument is shared, and silently
// differing bucket layouts would corrupt merges.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	m := r.lookup(name, help, "histogram").get(labelString(labels), func() metric { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a histogram", name))
	}
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with %d bounds, has %d", name, len(bounds), len(h.bounds)))
	}
	for i := range bounds {
		if h.bounds[i] != bounds[i] {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
	}
	return h
}

// GetHistogram returns a registered histogram without creating one —
// the read-side lookup benchmarks and tests use to reach an instrument
// some other layer registered.
func (r *Registry) GetHistogram(name string, labels ...string) *Histogram {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	h, _ := f.metrics[labelString(labels)].(*Histogram)
	return h
}

// GetCounter returns a registered plain counter, or nil.
func (r *Registry) GetCounter(name string, labels ...string) *Counter {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, _ := f.metrics[labelString(labels)].(*Counter)
	return c
}

// labelString renders alternating key/value pairs as the canonical
// `key="value",key2="value2"` fragment (no braces; empty for none).
// Keys are validated; values are escaped. Pair order is preserved —
// callers must pass a stable order for get-or-create to hit.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		mustValidLabel(labels[i])
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		escapeLabelValue(&b, labels[i+1])
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
}

func mustValidName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func mustValidLabel(name string) {
	if !validName(name) || strings.ContainsRune(name, ':') {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

// validName implements the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// NowIfEnabled returns time.Now(). It is the one clock entry for code
// that times itself into a Histogram (pair it with ObserveSince): the
// hot-path analyzer points bare time.Now() calls here, so every clock
// read on a measured path goes through one function.
func NowIfEnabled() time.Time { return time.Now() }

// sample writes one exposition line: name{labels} value.
func sample(w *strings.Builder, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	writeFloat(w, v)
	w.WriteByte('\n')
}

// writeFloat renders a float the Prometheus text format accepts.
func writeFloat(w *strings.Builder, v float64) {
	switch {
	case math.IsInf(v, 1):
		w.WriteString("+Inf")
	case math.IsInf(v, -1):
		w.WriteString("-Inf")
	case math.IsNaN(v):
		w.WriteString("NaN")
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		fmt.Fprintf(w, "%d", int64(v))
	default:
		fmt.Fprintf(w, "%g", v)
	}
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, each with
// its # HELP and # TYPE header and one sample line per label set (plus
// the _bucket/_sum/_count series for histograms).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		r.mu.RUnlock()
		f.mu.Lock()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, ls := range f.order {
			f.metrics[ls].write(&b, f.name, ls)
		}
		f.mu.Unlock()
	}
	_, err := w.Write([]byte(b.String()))
	return err
}
