package bsbm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/rdf"
	"repro/internal/rules"
)

func closure(t *testing.T, ruleset []rules.Rule, sts []rdf.Statement) (input int, inferred int64) {
	t.Helper()
	d := rdf.NewDictionary()
	ts := make([]rdf.Triple, len(sts))
	for i, s := range sts {
		ts[i] = d.EncodeStatement(s)
	}
	_, stats, err := baseline.Closure(context.Background(), ruleset, ts)
	if err != nil {
		t.Fatal(err)
	}
	return len(sts), stats.Inferred
}

func TestGenerateSizeAndValidity(t *testing.T) {
	for _, n := range []int{100, 2000, 20000} {
		sts := Generate(Config{Triples: n, Seed: 1})
		if len(sts) < n || len(sts) > n+16 {
			t.Fatalf("Generate(%d) emitted %d statements", n, len(sts))
		}
		for _, s := range sts {
			if !s.Valid() {
				t.Fatalf("invalid statement %v", s)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Triples: 3000, Seed: 42})
	b := Generate(Config{Triples: 3000, Seed: 42})
	if len(a) != len(b) {
		t.Fatal("lengths differ across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("statement %d differs across runs", i)
		}
	}
}

func TestGenerateDistinctTriples(t *testing.T) {
	sts := Generate(Config{Triples: 5000, Seed: 9})
	seen := make(map[string]bool, len(sts))
	dups := 0
	for _, s := range sts {
		k := s.String()
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	// BSBM data is essentially duplicate-free.
	if dups > len(sts)/100 {
		t.Fatalf("%d duplicate statements of %d", dups, len(sts))
	}
}

func TestSchemaShape(t *testing.T) {
	sts := Generate(Config{Triples: 10000, Seed: 1})
	var scCount, spCount, domCount int
	for _, s := range sts {
		switch s.P.Value {
		case rdf.IRISubClassOf:
			scCount++
		case rdf.IRISubPropertyOf:
			spCount++
		case rdf.IRIDomain, rdf.IRIRange:
			domCount++
		}
	}
	if scCount == 0 {
		t.Fatal("no subClassOf tree generated")
	}
	if spCount != 2 {
		t.Fatalf("subPropertyOf ladder = %d links, want 2", spCount)
	}
	// Matching the paper's observed closure ratios: no domain/range
	// declarations (see package comment).
	if domCount != 0 {
		t.Fatalf("generator emitted %d domain/range triples, want 0", domCount)
	}
}

func TestRhoDFClosureIsSmall(t *testing.T) {
	// Table 1: BSBM_100k infers 544 of 99,914 under ρdf (≈ 0.5%). Accept
	// anything below 5% at test scale — the point is "tiny ρdf closure".
	input, inferred := closure(t, rules.RhoDF(), Generate(Config{Triples: 20000, Seed: 7}))
	ratio := float64(inferred) / float64(input)
	if inferred == 0 {
		t.Fatal("ρdf closure empty — type tree missing?")
	}
	if ratio > 0.05 {
		t.Fatalf("ρdf closure ratio = %.3f (inferred %d of %d), want < 0.05", ratio, inferred, input)
	}
}

func TestRDFSClosureIsSubstantial(t *testing.T) {
	// Table 1: BSBM RDFS closures run ≈ 30% of input; our synthetic mix
	// lands somewhat lower. Accept 12–60%.
	input, inferred := closure(t, rules.RDFS(), Generate(Config{Triples: 20000, Seed: 7}))
	ratio := float64(inferred) / float64(input)
	if ratio < 0.12 || ratio > 0.60 {
		t.Fatalf("RDFS closure ratio = %.3f (inferred %d of %d), want 0.12–0.60", ratio, inferred, input)
	}
}

func TestEntityMix(t *testing.T) {
	sts := Generate(Config{Triples: 10000, Seed: 2})
	counts := map[string]int{}
	for _, s := range sts {
		if s.P.Value == rdf.IRIType && strings.HasPrefix(s.O.Value, VocabNS) {
			counts[strings.TrimPrefix(s.O.Value, VocabNS)]++
		}
	}
	for _, kind := range []string{"Product", "Offer", "Review", "Producer", "Vendor", "Person"} {
		if counts[kind] == 0 {
			t.Errorf("no %s instances generated (%v)", kind, counts)
		}
	}
	if counts["Product"] < counts["Offer"] {
		t.Errorf("products (%d) should outnumber offers (%d)", counts["Product"], counts["Offer"])
	}
}

func TestScalesLinearly(t *testing.T) {
	small := Generate(Config{Triples: 5000, Seed: 1})
	large := Generate(Config{Triples: 50000, Seed: 1})
	if len(large) < 9*len(small) {
		t.Fatalf("scaling broken: %d vs %d", len(small), len(large))
	}
}
