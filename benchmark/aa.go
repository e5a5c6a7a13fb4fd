package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// manifest is the part of BENCHMARK.json the A/A run needs: the bound each
// end-to-end metric may worsen by.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaCell is one (workload, metric) pair of the A/A report.
type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	// Diff is (MedianB - MedianA) / MedianA; Spread is the wider of the
	// two sides' quartile spreads.
	Diff   float64 `json:"diff"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Over   bool    `json:"over_bound"`
}

// aaRounds is how many A, B, B, A rounds the A/A run makes: five, so each
// side has the ten runs on ten seeds from which the PR driver takes its
// quartile spread.
const aaRounds = 5

// runAA runs the whole set on two sides, A and B, of the same code: every
// round is A, B, B, A, each run a fresh process, the two runs of a side in a
// round on two different seeds (the same ten on both sides). A cell is over
// its bound when B's median is worse than A's by more than the bound, or —
// setup_s apart — when a side's quartile spread exceeds it: the two rules
// the PR driver accepts a benchmark by. "steady" marks a spread below a
// third of the bound.
func runAA(cfg runConfig, scale string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cells := map[string]*aaCell{}
	var order []string
	for round := 0; round < aaRounds; round++ {
		for i, side := range []byte("ABBA") {
			seed := cfg.seed + int64(2*round+i/2)
			for _, w := range workloads {
				progress("A/A round %d side %c: %s seed %d", round+1, side, w.name, seed)
				metrics, err := runChild(self, w.name, seed, cfg, scale)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				for _, d := range append(append([]metricDef(nil), endToEnd...), ungated...) {
					key := w.name + "/" + d.name
					c := cells[key]
					if c == nil {
						c = &aaCell{Workload: w.name, Metric: d.name, Unit: d.unit}
						cells[key] = c
						order = append(order, key)
					}
					if side == 'A' {
						c.A = append(c.A, metrics[d.name])
					} else {
						c.B = append(c.B, metrics[d.name])
					}
				}
			}
		}
	}
	bounds := map[string]float64{}
	for _, e := range m.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	report := make([]*aaCell, 0, len(order))
	over := 0
	fmt.Printf("%-14s %-24s %12s %12s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound")
	for _, key := range order {
		c := cells[key]
		c.MedianA, c.MedianB, c.Bound = median(c.A), median(c.B), bounds[c.Metric]
		c.Diff = (c.MedianB - c.MedianA) / c.MedianA
		c.Spread = max(quartileSpread(c.A), quartileSpread(c.B))
		c.Over = c.Bound > 0 && (c.Diff > c.Bound || (c.Metric != "setup_s" && c.Spread > c.Bound))
		bound, mark := fmt.Sprintf("%.0f%%", 100*c.Bound), ""
		switch {
		case c.Bound == 0:
			bound = "-" // measured, not gated
		case c.Over:
			mark = "  OVER"
			over++
		case c.Spread < c.Bound/3:
			mark = "  steady"
		}
		fmt.Printf("%-14s %-24s %12.5g %12.5g %+7.1f%% %7.1f%% %6s%s\n",
			c.Workload, c.Metric, c.MedianA, c.MedianB, 100*c.Diff, 100*c.Spread, bound, mark)
		report = append(report, c)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "aa.json"), map[string]any{
		"env": readEnv(cfg), "rounds": aaRounds, "scale": scale, "cells": report,
	}); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("%d gated cells are over their bound", over)
	}
	return nil
}

// runChild runs one workload in a process of its own and returns every
// metric of the record it wrote, gated or not.
func runChild(self, workload string, seed int64, cfg runConfig, scale string) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-scale", scale, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	raw, err := os.ReadFile(filepath.Join(cfg.outDir, "result-"+workload+".json"))
	if err != nil {
		return nil, err
	}
	var rec result
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("result record: %w", err)
	}
	if rec.Failed > 0 || rec.Env.Seed != seed {
		return nil, fmt.Errorf("run of seed %d left a record of seed %d with %d failed operations", seed, rec.Env.Seed, rec.Failed)
	}
	metrics := map[string]float64{}
	for _, m := range append(rec.Metrics, rec.Other...) {
		metrics[m.Name] = m.Value
	}
	return metrics, nil
}
