// Command sliderbench regenerates the paper's evaluation (§3): Table 1,
// Figure 2 (the ρdf rules dependency graph), Figure 3 and the demo's
// parameter sweep.
//
// Usage:
//
//	sliderbench -table1                 # Table 1 at laptop scale
//	sliderbench -table1 -scale paper    # the paper's dataset sizes
//	sliderbench -fig3                   # Figure 3 series
//	sliderbench -fig2 | dot -Tpng       # Figure 2 as DOT
//	sliderbench -sweep -dataset BSBM_100k
//	sliderbench -torture                # disk-fault torture; exits nonzero on a violation
//
// Performance numbers for the engine itself come from benchmark/ (see
// BENCHMARK.json), not from this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "reproduce Table 1 (both fragments, both engines)")
		fig2    = flag.Bool("fig2", false, "print the ρdf rules dependency graph (Figure 2) as DOT")
		fig3    = flag.Bool("fig3", false, "reproduce Figure 3 (runs the Table 1 matrix)")
		sweep   = flag.Bool("sweep", false, "run the demo's buffer-size × timeout parameter sweep")
		dataset = flag.String("dataset", "BSBM_100k", "dataset for -sweep")
		scale   = flag.String("scale", "small", "dataset scale: small | medium | paper")
		buffer  = flag.Int("buffer", 0, "Slider buffer size (0 = default)")
		timeout = flag.Duration("timeout", 0, "Slider buffer timeout (0 = default)")
		repeat  = flag.Int("repeat", 3, "runs per cell; the fastest is reported")
		limit   = flag.Duration("limit", 30*time.Minute, "overall time limit")

		torture      = flag.Bool("torture", false, "run the disk-fault torture harness: seeded fault schedules under concurrent ingest/retract/checkpoint load, asserting the degraded-mode contract (exits nonzero on any violation)")
		tortureN     = flag.Int("tortureschedules", 4, "seeded schedules for -torture")
		tortureSeed  = flag.Int64("tortureseed", 1, "base seed for -torture (schedule i uses seed+i)")
		tortureFlts  = flag.Int("torturefaults", 4, "fault rounds per -torture schedule")
		tortureWrtrs = flag.Int("torturewriters", 4, "concurrent ingest writers per -torture schedule")

		traceOn = flag.Bool("trace", false, "leave flight-path tracing on while benchmarking (default off for clean baselines)")
	)
	flag.Parse()

	if !*traceOn {
		trace.SetEnabled(false)
	}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg := bench.SliderConfig{BufferSize: *buffer, Timeout: *timeout, Repeats: *repeat}
	ctx, cancel := context.WithTimeout(context.Background(), *limit)
	defer cancel()

	if !*table1 && !*fig2 && !*fig3 && !*sweep && !*torture {
		*table1 = true
	}

	if *fig2 {
		bench.Figure2(os.Stdout)
	}
	if *table1 || *fig3 {
		rows, err := bench.Table1(ctx, os.Stdout, sc, cfg)
		if err != nil {
			fatal(err)
		}
		if *fig3 {
			fmt.Println()
			bench.Figure3(os.Stdout, rows)
		}
	}
	if *sweep {
		ds, err := bench.DatasetByName(*dataset, sc)
		if err != nil {
			fatal(err)
		}
		if _, err := bench.Sweep(ctx, os.Stdout, ds, nil, nil); err != nil {
			fatal(err)
		}
	}
	if *torture {
		rep, err := bench.Torture(ctx, bench.TortureConfig{
			Schedules: *tortureN,
			Writers:   *tortureWrtrs,
			Faults:    *tortureFlts,
			Seed:      *tortureSeed,
		})
		if err != nil {
			fatal(err)
		}
		bench.WriteTortureTable(os.Stdout, rep)
		if rep.Violations > 0 {
			fatal(fmt.Errorf("torture: %d contract violations", rep.Violations))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sliderbench:", err)
	os.Exit(1)
}
