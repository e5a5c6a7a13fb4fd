package obs

import (
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// ExponentialBuckets returns n upper bounds starting at start and
// growing by factor — the standard latency/size bucket layout.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Default bucket layouts. Durations are recorded in seconds; the
// duration buckets span 1µs to ~33s in powers of two, which keeps
// bucket-edge quantile error under a factor of two everywhere the
// engine's latencies live. Size buckets span 1 to ~1M in powers of two
// (batch sizes, row counts); cost buckets span 1 to ~1e12 in powers of
// four (planner row estimates).
var (
	DurationBuckets = ExponentialBuckets(1e-6, 2, 26)
	SizeBuckets     = ExponentialBuckets(1, 2, 21)
	CostBuckets     = ExponentialBuckets(1, 4, 21)
)

// Histogram is a fixed-bucket histogram: counts per bucket, a running
// sum, and a total count, all updated lock-free. Recording is one
// binary search over the (immutable) bounds plus three atomic adds, so
// it is safe on hot paths; snapshots are mergeable and support quantile
// extraction.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf bucket implied
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// NewHistogram builds an unregistered histogram — for call sites that
// want the instrument without exposition (benchmark harnesses, tests).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	return newHistogram(bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; index len(bounds) is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0. A zero t0 records
// nothing.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns how many values have been recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistSnapshot is a point-in-time copy of a histogram, suitable for
// merging, differencing and quantile extraction. Counts are per-bucket
// (not cumulative); Counts[len(Bounds)] is the overflow (+Inf) bucket.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's current state. Concurrent recording
// may skew Count against the bucket totals by the handful of updates in
// flight; the snapshot normalises Count to the bucket sum so quantile
// extraction is always self-consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds, // immutable, shared
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Merge adds another snapshot into s. The two must share bucket bounds.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Counts) != len(o.Counts) {
		panic("obs: merging histograms with different bucket layouts")
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Sub subtracts an earlier snapshot, yielding the delta histogram for
// the interval between the two — how a scrape-to-scrape or
// cell-to-cell p99 is extracted from a cumulative instrument.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	if len(s.Counts) != len(prev.Counts) {
		panic("obs: differencing histograms with different bucket layouts")
	}
	d := HistSnapshot{Bounds: s.Bounds, Counts: make([]int64, len(s.Counts))}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
		d.Count += d.Counts[i]
	}
	d.Sum = s.Sum - prev.Sum
	return d
}

// Quantile returns the q-th quantile (0 <= q <= 1) estimated by linear
// interpolation inside the bucket the target rank falls in — the same
// estimate Prometheus's histogram_quantile computes. Values in the
// overflow bucket clamp to the highest finite bound. Returns NaN when
// the snapshot is empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i == len(s.Bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			frac := (rank - float64(cum-c)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the average of the recorded values (NaN when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// write renders the histogram's exposition series: cumulative
// _bucket{le=...} lines, then _sum and _count.
func (h *Histogram) write(w *strings.Builder, name, labels string) {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		w.WriteString(name)
		w.WriteString("_bucket{")
		if labels != "" {
			w.WriteString(labels)
			w.WriteByte(',')
		}
		w.WriteString(`le="`)
		if i == len(h.bounds) {
			w.WriteString("+Inf")
		} else {
			writeFloat(w, h.bounds[i])
		}
		w.WriteString(`"} `)
		writeFloat(w, float64(cum))
		w.WriteByte('\n')
	}
	sample(w, name+"_sum", labels, math.Float64frombits(h.sum.Load()))
	sample(w, name+"_count", labels, float64(cum))
}

// Quantiles is a convenience for reports: p50/p90/p99 in one call.
func (s HistSnapshot) Quantiles() (p50, p90, p99 float64) {
	return s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99)
}
