package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	if got := g.Load(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Load(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

// TestHistogramBucketEdges pins the bucket-assignment contract: a value
// exactly on a bound lands in that bound's bucket (le is inclusive, as
// in Prometheus), one ulp above lands in the next.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(0.5) // bucket 0 (le=1)
	h.Observe(1)   // bucket 0 (le=1): inclusive upper bound
	h.Observe(1.5) // bucket 1 (le=2)
	h.Observe(2)   // bucket 1
	h.Observe(4)   // bucket 2 (le=4)
	h.Observe(4.5) // overflow
	h.Observe(100) // overflow
	s := h.Snapshot()
	want := []int64{2, 2, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if got, want := s.Sum, 0.5+1+1.5+2+4+4.5+100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 values uniformly in bucket (1,2]: quantiles interpolate inside it.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 1 || p50 > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", p50)
	}
	// Exactly interpolated: rank 50 of 100 in a bucket spanning [1,2] → 1.5.
	if p50 := s.Quantile(0.5); math.Abs(p50-1.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 1.5", p50)
	}
	if p100 := s.Quantile(1); math.Abs(p100-2) > 1e-9 {
		t.Fatalf("p100 = %v, want 2", p100)
	}

	// Overflow values clamp to the top finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(50)
	if p := h2.Snapshot().Quantile(0.99); p != 2 {
		t.Fatalf("overflow p99 = %v, want clamp to 2", p)
	}

	// Empty snapshot.
	if p := NewHistogram(nil).Snapshot().Quantile(0.5); !math.IsNaN(p) {
		t.Fatalf("empty p50 = %v, want NaN", p)
	}
}

func TestHistogramMergeAndSub(t *testing.T) {
	a := NewHistogram([]float64{1, 2, 4})
	b := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		a.Observe(0.5)
	}
	for i := 0; i < 20; i++ {
		b.Observe(3)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Counts = append([]int64(nil), sa.Counts...)
	merged.Merge(sb)
	if merged.Count != 30 {
		t.Fatalf("merged count = %d, want 30", merged.Count)
	}
	if merged.Counts[0] != 10 || merged.Counts[2] != 20 {
		t.Fatalf("merged counts = %v", merged.Counts)
	}
	if got, want := merged.Sum, 10*0.5+20*3.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged sum = %v, want %v", got, want)
	}

	// Sub recovers exactly the interval's observations.
	before := a.Snapshot()
	a.Observe(1.5)
	a.Observe(1.5)
	delta := a.Snapshot().Sub(before)
	if delta.Count != 2 || delta.Counts[1] != 2 {
		t.Fatalf("delta = %+v, want 2 observations in bucket 1", delta)
	}
	if math.Abs(delta.Sum-3) > 1e-9 {
		t.Fatalf("delta sum = %v, want 3", delta.Sum)
	}
}

func TestObserveSince(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if s := h.Snapshot(); s.Sum < 0.001 || s.Sum > 1 {
		t.Fatalf("sum = %v, want ~1ms in seconds", s.Sum)
	}
	h.ObserveSince(time.Time{}) // zero time records nothing
	if h.Count() != 1 {
		t.Fatalf("zero-time ObserveSince recorded")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatalf("same name returned different counters")
	}
	l1 := r.Counter("y_total", "help", "route", "a")
	l2 := r.Counter("y_total", "help", "route", "b")
	if l1 == l2 {
		t.Fatalf("different labels returned the same counter")
	}
	if got := r.GetCounter("y_total", "route", "a"); got != l1 {
		t.Fatalf("GetCounter lookup failed")
	}
	if got := r.GetCounter("nope_total"); got != nil {
		t.Fatalf("GetCounter on unknown name = %v, want nil", got)
	}
	h := r.Histogram("z_seconds", "help", nil)
	if got := r.GetHistogram("z_seconds"); got != h {
		t.Fatalf("GetHistogram lookup failed")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "a b", "a-b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name %q accepted", bad)
				}
			}()
			r.Counter(bad, "help")
		}()
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "counts b", "kind", `x"y\z`).Add(3)
	r.Gauge("a_gauge", "a gauge").Set(1.5)
	r.GaugeFunc("f_gauge", "func gauge", func() float64 { return 7 })
	h := r.Histogram("h_seconds", "hist", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_gauge a gauge\n# TYPE a_gauge gauge\na_gauge 1.5\n",
		"# TYPE b_total counter\n" + `b_total{kind="x\"y\\z"} 3` + "\n",
		"f_gauge 7\n",
		"# TYPE h_seconds histogram\n",
		`h_seconds_bucket{le="1"} 1` + "\n",
		`h_seconds_bucket{le="2"} 2` + "\n",
		`h_seconds_bucket{le="+Inf"} 3` + "\n",
		"h_seconds_sum 11\n",
		"h_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families sorted by name.
	if strings.Index(out, "# HELP a_gauge") > strings.Index(out, "# HELP b_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}
