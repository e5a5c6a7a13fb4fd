// Benchmarks regenerating the paper's evaluation (§3). One benchmark
// family per table/figure, plus ablations for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Dataset sizes here are the harness's "small" scale so the suite
// finishes quickly; use `go run ./cmd/sliderbench -table1 -scale paper`
// for paper-sized runs.
package slider_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/bsbm"
	"repro/internal/ntriples"
	"repro/internal/ontogen"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

// benchDatasets caches the small-scale suite across benchmarks.
var benchDatasets = bench.Datasets(bench.ScaleSmall)

func datasetNamed(b *testing.B, name string) bench.Dataset {
	b.Helper()
	for _, d := range benchDatasets {
		if d.Name == name {
			return d
		}
	}
	b.Fatalf("no dataset %q", name)
	return bench.Dataset{}
}

func runSlider(b *testing.B, ds bench.Dataset, frag bench.Fragment, cfg bench.SliderConfig) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bench.RunSlider(ctx, ds, frag, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(m.Inferred), "inferred")
			b.ReportMetric(m.Throughput, "triples/s")
		}
	}
}

func runBatch(b *testing.B, ds bench.Dataset, frag bench.Fragment, strategy baseline.Strategy) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bench.RunBatch(ctx, ds, frag, strategy)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(m.Inferred), "inferred")
		}
	}
}

// BenchmarkTable1 regenerates the paper's Table 1: every ontology × both
// fragments × both engines (batch naive = the OWLIM-SE stand-in).
func BenchmarkTable1(b *testing.B) {
	for _, ds := range benchDatasets {
		for _, frag := range []bench.Fragment{bench.RhoDF, bench.RDFS} {
			ds, frag := ds, frag
			b.Run(fmt.Sprintf("%s/%s/batch", ds.Name, frag), func(b *testing.B) {
				runBatch(b, ds, frag, baseline.Naive)
			})
			b.Run(fmt.Sprintf("%s/%s/slider", ds.Name, frag), func(b *testing.B) {
				runSlider(b, ds, frag, bench.SliderConfig{})
			})
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3's series: inference time for both
// engines on both fragments, largest BSBM dataset omitted as in the paper.
func BenchmarkFigure3(b *testing.B) {
	for _, ds := range benchDatasets {
		if ds.Name == "BSBM_5M" {
			continue
		}
		// Figure 3 is Table 1 visualised; benchmark a representative
		// subset (the extremes of each family) to keep the suite short.
		switch ds.Name {
		case "BSBM_100k", "BSBM_1M", "wikipedia", "wordnet", "subClassOf10", "subClassOf100":
		default:
			continue
		}
		for _, frag := range []bench.Fragment{bench.RhoDF, bench.RDFS} {
			ds, frag := ds, frag
			b.Run(fmt.Sprintf("%s/%s/batch", ds.Name, frag), func(b *testing.B) {
				runBatch(b, ds, frag, baseline.Naive)
			})
			b.Run(fmt.Sprintf("%s/%s/slider", ds.Name, frag), func(b *testing.B) {
				runSlider(b, ds, frag, bench.SliderConfig{})
			})
		}
	}
}

// BenchmarkFigure2 measures building the rules dependency graph and
// rendering it as DOT (done once at reasoner initialisation).
func BenchmarkFigure2(b *testing.B) {
	for _, frag := range []bench.Fragment{bench.RhoDF, bench.RDFS} {
		frag := frag
		b.Run(frag.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := rules.BuildDependencyGraph(frag.Rules())
				if len(g.DOT()) == 0 {
					b.Fatal("empty DOT")
				}
			}
		})
	}
}

// BenchmarkAblationBufferSize sweeps the demo's buffer-size parameter on
// a fixed workload (the §4 parameter space, one axis).
func BenchmarkAblationBufferSize(b *testing.B) {
	ds := datasetNamed(b, "BSBM_100k")
	for _, size := range []int{1, 10, 100, 1000} {
		size := size
		b.Run(fmt.Sprintf("buffer%d", size), func(b *testing.B) {
			runSlider(b, ds, bench.RhoDF, bench.SliderConfig{BufferSize: size})
		})
	}
}

// BenchmarkAblationTimeout sweeps the buffer-timeout parameter (the other
// §4 axis) on a workload small enough that timeouts actually fire.
func BenchmarkAblationTimeout(b *testing.B) {
	ds := datasetNamed(b, "subClassOf100")
	for _, to := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		to := to
		b.Run(to.String(), func(b *testing.B) {
			runSlider(b, ds, bench.RhoDF, bench.SliderConfig{BufferSize: 512, Timeout: to})
		})
	}
}

// BenchmarkAblationStrategy isolates the "duplicates limitation" claim:
// the same chain workload under naive batch, semi-naive batch, and
// incremental Slider evaluation.
func BenchmarkAblationStrategy(b *testing.B) {
	ds := datasetNamed(b, "subClassOf100")
	b.Run("naive", func(b *testing.B) { runBatch(b, ds, bench.RhoDF, baseline.Naive) })
	b.Run("seminaive", func(b *testing.B) { runBatch(b, ds, bench.RhoDF, baseline.SemiNaive) })
	b.Run("slider", func(b *testing.B) { runSlider(b, ds, bench.RhoDF, bench.SliderConfig{}) })
}

// BenchmarkAblationWorkers measures the scalability of the thread pool
// (the paper's "parallel and scalable execution" claim).
func BenchmarkAblationWorkers(b *testing.B) {
	ds := datasetNamed(b, "BSBM_1M")
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			runSlider(b, ds, bench.RDFS, bench.SliderConfig{Workers: w})
		})
	}
}

// BenchmarkStore covers the triple store's hot operations (vertical
// partitioning trade-offs, §2.2).
func BenchmarkStore(b *testing.B) {
	const n = 100_000
	triples := make([]rdf.Triple, n)
	for i := range triples {
		triples[i] = rdf.T(rdf.ID(i%10000+100), rdf.ID(i%17+1), rdf.ID(i%5000+100))
	}
	b.Run("Add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := store.New()
			for _, t := range triples {
				st.Add(t)
			}
		}
	})
	st := store.New()
	for _, t := range triples {
		st.Add(t)
	}
	b.Run("Contains", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Contains(triples[i%n])
		}
	})
	b.Run("Objects", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Objects(triples[i%n].P, triples[i%n].S)
		}
	})
	b.Run("MatchPredicate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := st.Match(rdf.T(rdf.Any, rdf.ID(i%17+1), rdf.Any)); len(got) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkParser measures N-Triples parsing throughput (the input
// manager's front end; paper timings include parsing).
func BenchmarkParser(b *testing.B) {
	var sb strings.Builder
	if err := ntriples.WriteAll(&sb, bsbm.Generate(bsbm.Config{Triples: 10_000, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sts, err := ntriples.ParseString(doc)
		if err != nil {
			b.Fatal(err)
		}
		if len(sts) < 10_000 {
			b.Fatal("short parse")
		}
	}
}

// BenchmarkDictionary measures dictionary encoding throughput (the input
// manager's URI→ID mapping).
func BenchmarkDictionary(b *testing.B) {
	sts := ontogen.Wikipedia(ontogen.Config{Triples: 10_000, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := rdf.NewDictionary()
		for _, s := range sts {
			d.EncodeStatement(s)
		}
	}
}
