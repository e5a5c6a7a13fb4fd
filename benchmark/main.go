// Command benchmark is the repository's one repeatable benchmark: four
// workloads, each the same six phases (setup, load, query, trickle, churn,
// recover) against a reasoner configured like sliderd, the end-to-end
// metrics BENCHMARK.json gates and a few it does not, and — with -trace 1 — per-layer cells timed from outside around
// each layer's public calls. README.md has the catalogue.
//
//	benchmark -workload deep-rdfs -seed 7            end-to-end metrics
//	benchmark -workload deep-rdfs -seed 7 -trace 1   per-layer metrics
//	benchmark -aa                                    same-code A/A run
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is 1 when a correctness check failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: bulk-rhodf | deep-rdfs | serve-durable | retract-churn")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", runSeconds, "scales the sampled phases: the catalogue counts hold at the default")
		traced  = flag.Int("trace", 0, "1: run the per-layer cells and print the per-layer metrics instead")
		scale   = flag.String("scale", "full", "dataset and sample scale: full | tiny (a hundredth)")
		outDir  = flag.String("out", "benchmark/out", "directory for result records, traces and scratch files")
		aa      = flag.Bool("aa", false, "run every workload ten times a side in A, B, B, A order and compare the two sides")
	)
	flag.Parse()
	divisor, ok := map[string]int{"full": 1, "tiny": 100}[*scale]
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad -scale, -seconds or stray argument")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, divisor: divisor, outDir: *outDir}
	if *aa {
		if err := runAA(cfg, *scale); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}

	// End-to-end metrics are measured with the repository's tracer off;
	// the traced run switches it on only inside its overhead cell.
	trace.SetEnabled(false)
	ctx := context.Background()
	run := runWorkload
	if *traced != 0 {
		run = runTraced
	}
	res, err := run(ctx, w, cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.complete(); err != nil {
		fatal(err)
	}
	if err := res.write(*outDir); err != nil {
		fatal(err)
	}
	if err := res.print(os.Stdout); err != nil {
		fatal(err)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
