// Package bench is the benchmark harness that regenerates the paper's
// evaluation (§3): Table 1, Figure 3 and the demo's parameter sweep. It
// runs the {ontology × fragment × engine} matrix over the same datasets
// the paper uses — BSBM-generated ontologies, subClassOf_n chains, and
// the Wikipedia/WordNet stand-ins — timing batch materialisation (the
// OWLIM-SE stand-in) against the incremental Slider engine.
//
// As in the paper, measured times include input processing (dictionary
// encoding of the parsed statements) plus inference, identically for both
// engines.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsbm"
	"repro/internal/ontogen"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
	"repro/internal/store"
)

// Fragment selects the ruleset, as the demo's Setup panel does.
type Fragment int

const (
	// RhoDF is the ρdf fragment (Figure 2).
	RhoDF Fragment = iota
	// RDFS is the RDFS fragment.
	RDFS
)

// String returns the fragment name as the paper prints it.
func (f Fragment) String() string {
	if f == RDFS {
		return "RDFS"
	}
	return "rhodf"
}

// Rules returns the fragment's ruleset.
func (f Fragment) Rules() []rules.Rule {
	if f == RDFS {
		return rules.RDFS()
	}
	return rules.RhoDF()
}

// Scale shrinks the paper's dataset sizes to fit the machine at hand.
// Relative shapes (who wins, where gains shrink) are preserved.
type Scale int

const (
	// ScaleSmall divides BSBM/Wikipedia/WordNet sizes by 100 and caps
	// chains at n=100. Suitable for laptops and CI.
	ScaleSmall Scale = iota
	// ScaleMedium divides sizes by 10 and caps chains at n=200.
	ScaleMedium
	// ScalePaper uses the paper's sizes (BSBM up to 5M triples).
	ScalePaper
)

// ParseScale converts a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "paper", "full":
		return ScalePaper, nil
	}
	return ScaleSmall, fmt.Errorf("bench: unknown scale %q (small|medium|paper)", s)
}

func (s Scale) String() string {
	switch s {
	case ScaleMedium:
		return "medium"
	case ScalePaper:
		return "paper"
	default:
		return "small"
	}
}

func (s Scale) divisor() int {
	switch s {
	case ScaleMedium:
		return 10
	case ScalePaper:
		return 1
	default:
		return 100
	}
}

// Dataset is one ontology of the evaluation.
type Dataset struct {
	// Name as printed in Table 1 (e.g. "BSBM_100k", "subClassOf50").
	Name string
	// Statements is the parsed ontology.
	Statements []rdf.Statement
}

// Datasets materialises the paper's 13-ontology suite at the given scale.
// BSBM names keep the paper's labels (the scaled sizes are what shrink).
func Datasets(scale Scale) []Dataset {
	div := scale.divisor()
	var out []Dataset
	bsbmSizes := []struct {
		label string
		size  int
	}{
		{"BSBM_100k", 100_000}, {"BSBM_200k", 200_000}, {"BSBM_500k", 500_000},
		{"BSBM_1M", 1_000_000}, {"BSBM_5M", 5_000_000},
	}
	for _, b := range bsbmSizes {
		out = append(out, Dataset{
			Name:       b.label,
			Statements: bsbm.Generate(bsbm.Config{Triples: b.size / div, Seed: 42}),
		})
	}
	out = append(out,
		Dataset{Name: "wikipedia", Statements: ontogen.Wikipedia(ontogen.Config{Triples: 458_369 / div, Seed: 42})},
		Dataset{Name: "wordnet", Statements: ontogen.WordNet(ontogen.Config{Triples: 473_589 / div, Seed: 42})},
	)
	chainSizes := []int{10, 20, 50, 100}
	if scale >= ScaleMedium {
		chainSizes = append(chainSizes, 200)
	}
	if scale == ScalePaper {
		chainSizes = append(chainSizes, 500)
	}
	for _, n := range chainSizes {
		out = append(out, Dataset{
			Name:       fmt.Sprintf("subClassOf%d", n),
			Statements: ontogen.SubClassChain(n),
		})
	}
	return out
}

// DatasetByName builds a single dataset, for the CLI and demo.
func DatasetByName(name string, scale Scale) (Dataset, error) {
	for _, d := range Datasets(scale) {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("bench: unknown dataset %q", name)
}

// Measurement is one engine run on one dataset with one fragment.
type Measurement struct {
	// Input is the number of explicit statements processed.
	Input int
	// Inferred is the number of distinct triples added by inference.
	Inferred int64
	// Elapsed covers dictionary encoding plus inference (both engines
	// are charged identically, as in the paper).
	Elapsed time.Duration
	// Throughput is Input / Elapsed in triples per second.
	Throughput float64
}

// SliderConfig tunes the Slider engine for harness runs.
type SliderConfig struct {
	BufferSize int
	Timeout    time.Duration
	// Repeats re-runs each measurement and keeps the fastest time
	// (noise suppression on shared machines). 0 means 1.
	Repeats int
}

// RunSlider streams the dataset through a fresh Slider engine and waits
// for quiescence.
func RunSlider(ctx context.Context, ds Dataset, fragment Fragment, cfg SliderConfig) (Measurement, error) {
	dict := rdf.NewDictionary()
	st := store.New()
	eng := reasoner.New(st, fragment.Rules(), reasoner.Config{
		BufferSize: cfg.BufferSize,
		Timeout:    cfg.Timeout,
	})
	start := time.Now()
	for _, s := range ds.Statements {
		eng.Add(dict.EncodeStatement(s))
	}
	if err := eng.Close(ctx); err != nil {
		return Measurement{}, err
	}
	elapsed := time.Since(start)
	if err := eng.Err(); err != nil {
		return Measurement{}, err
	}
	stats := eng.Stats()
	return newMeasurement(len(ds.Statements), stats.Inferred, elapsed), nil
}

// RunBatch materialises the dataset with the batch (OWLIM-SE stand-in)
// engine using the given strategy.
func RunBatch(ctx context.Context, ds Dataset, fragment Fragment, strategy baseline.Strategy) (Measurement, error) {
	dict := rdf.NewDictionary()
	st := store.New()
	eng := baseline.New(st, fragment.Rules(), strategy)
	start := time.Now()
	triples := make([]rdf.Triple, len(ds.Statements))
	for i, s := range ds.Statements {
		triples[i] = dict.EncodeStatement(s)
	}
	stats, err := eng.Materialize(ctx, triples)
	if err != nil {
		return Measurement{}, err
	}
	elapsed := time.Since(start)
	return newMeasurement(len(ds.Statements), stats.Inferred, elapsed), nil
}

func newMeasurement(input int, inferred int64, elapsed time.Duration) Measurement {
	m := Measurement{Input: input, Inferred: inferred, Elapsed: elapsed}
	if elapsed > 0 {
		m.Throughput = float64(input) / elapsed.Seconds()
	}
	return m
}

// Row is one Table 1 line for one fragment.
type Row struct {
	Dataset  string
	Fragment Fragment
	Input    int
	Inferred int64
	Batch    time.Duration
	Slider   time.Duration
	// Gain is the paper's speed-up metric: (batch - slider) / slider × 100.
	Gain float64
	// Throughput is Slider's triples/second over the run.
	Throughput float64
}

// gain computes the paper's percentage speed-up of Slider over the batch
// engine.
func gain(batch, slider time.Duration) float64 {
	if slider <= 0 {
		return 0
	}
	return (batch.Seconds() - slider.Seconds()) / slider.Seconds() * 100
}

// RunRow measures one dataset × fragment cell with both engines, running
// each cfg.Repeats times and keeping the fastest run per engine.
func RunRow(ctx context.Context, ds Dataset, fragment Fragment, cfg SliderConfig) (Row, error) {
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var batch, slider Measurement
	for i := 0; i < repeats; i++ {
		b, err := RunBatch(ctx, ds, fragment, baseline.Naive)
		if err != nil {
			return Row{}, fmt.Errorf("batch %s/%s: %w", ds.Name, fragment, err)
		}
		s, err := RunSlider(ctx, ds, fragment, cfg)
		if err != nil {
			return Row{}, fmt.Errorf("slider %s/%s: %w", ds.Name, fragment, err)
		}
		if i == 0 || b.Elapsed < batch.Elapsed {
			batch = b
		}
		if i == 0 || s.Elapsed < slider.Elapsed {
			slider = s
		}
	}
	if batch.Inferred != slider.Inferred {
		return Row{}, fmt.Errorf("bench: closure mismatch on %s/%s: batch inferred %d, slider %d",
			ds.Name, fragment, batch.Inferred, slider.Inferred)
	}
	return Row{
		Dataset:    ds.Name,
		Fragment:   fragment,
		Input:      slider.Input,
		Inferred:   slider.Inferred,
		Batch:      batch.Elapsed,
		Slider:     slider.Elapsed,
		Gain:       gain(batch.Elapsed, slider.Elapsed),
		Throughput: slider.Throughput,
	}, nil
}
