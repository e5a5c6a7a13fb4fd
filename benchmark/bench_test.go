package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyConfig(t *testing.T, seed int64) runConfig {
	return runConfig{seed: seed, seconds: runSeconds, divisor: 100, outDir: t.TempDir()}
}

// Every workload at 1/100 scale: each declared end-to-end metric comes out
// exactly once, under its declared unit, with a legal name and a value a
// regression bound can be a share of; no check fails; the same seed gives
// the same inputs and another seed others.
func TestTinyWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(ctx, w, tinyConfig(t, 5))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric must never be 0", m.Name, m.Value)
				}
			}
			again, err := newDataset(w.family, w.triples/100, 5)
			if err != nil {
				t.Fatal(err)
			}
			other, err := newDataset(w.family, w.triples/100, 6)
			if err != nil {
				t.Fatal(err)
			}
			if again.sha != res.InputSHA256 {
				t.Errorf("seed 5 gave input %s, then %s", res.InputSHA256, again.sha)
			}
			if other.sha == res.InputSHA256 {
				t.Errorf("seeds 5 and 6 gave the same input %s", other.sha)
			}
		})
	}
}

// The traced run reports every per-layer metric on a library workload and
// on the one with an HTTP face and a log of its own.
func TestTinyTraced(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"deep-rdfs", "serve-durable"} {
		w, _ := workloadByName(name)
		res, err := runTraced(ctx, w, tinyConfig(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, perLayer)
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if err := res.complete(); err != nil {
		t.Error(err)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
	}
	for _, m := range res.Metrics {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _, . and -", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
	}
}

// The catalogue in result.go and BENCHMARK.json at the repository root
// declare the same workloads and the same metrics under the same units.
func TestCatalogueMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Why   string  `json:"why"`
		Bound float64 `json:"bound"`
	}
	var m struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the catalogue counts hold at %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest says %q, benchmark %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the manifest, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: manifest %s [%s], catalogue %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	// ISSUE 12: no committed bound exceeds 15 %; the driver's contract:
	// setup_s has the largest.
	largest := 0.0
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.15 {
			t.Errorf("%s: bound %v is outside (0, 0.15]", e.Name, e.Bound)
		}
		largest = max(largest, e.Bound)
	}
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first and have the largest bound, %v", largest)
	}
}

// quartileSpread follows Python's statistics.quantiles(values, n=4).
func TestQuartileSpread(t *testing.T) {
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := median(vs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}
