// Package baseline implements batch forward-chaining materialisation over
// the same store and rulesets as the Slider engine.
//
// It is the repository's stand-in for OWLIM-SE, the commercial batch
// reasoner the paper benchmarks against (Table 1, Figure 3). OWLIM-SE is
// closed source; what matters for reproducing the paper's comparison is
// the *evaluation strategy*, not the product: a batch engine re-runs full
// fixpoint rounds over the whole knowledge base, repeatedly re-deriving
// duplicates — the "commonly used iterative rules schemes produce O(n³)
// triples" behaviour the paper cites [19] — while Slider processes only
// deltas. Both engines here share internal/store and internal/rules, so
// the comparison isolates exactly that architectural difference.
//
// Two strategies are provided:
//
//   - Naive: every round applies every rule to the entire current triple
//     set. This is the OWLIM-SE stand-in used for Table 1.
//   - SemiNaive: every round applies rules only to the triples derived in
//     the previous round. Used in ablation benchmarks to separate the
//     cost of batch scheduling from the cost of duplicate re-derivation.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

// Strategy selects the fixpoint evaluation strategy.
type Strategy int

const (
	// Naive re-evaluates all rules against the full triple set each round.
	Naive Strategy = iota
	// SemiNaive evaluates rules against the previous round's fresh
	// triples only.
	SemiNaive
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case SemiNaive:
		return "semi-naive"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Stats reports what a materialisation run did.
type Stats struct {
	// Rounds is the number of fixpoint iterations until no new triples.
	Rounds int
	// Derivations counts every triple emitted by a rule, including
	// duplicates — the quantity batch evaluation wastes work on.
	Derivations int64
	// Inferred counts distinct new triples added to the store.
	Inferred int64
	// Duplicates = Derivations - Inferred.
	Duplicates int64
}

// Reasoner is a batch materialisation engine.
type Reasoner struct {
	store    *store.Store
	ruleset  []rules.Rule
	strategy Strategy
}

// New returns a batch reasoner over st.
func New(st *store.Store, ruleset []rules.Rule, strategy Strategy) *Reasoner {
	return &Reasoner{store: st, ruleset: ruleset, strategy: strategy}
}

// Store returns the underlying triple store.
func (r *Reasoner) Store() *store.Store { return r.store }

// Materialize loads the given triples into the store and computes the
// full closure, running rule rounds to fixpoint. It is the batch
// counterpart of streaming every triple through the Slider engine and
// waiting for quiescence. ctx bounds the computation.
func (r *Reasoner) Materialize(ctx context.Context, input []rdf.Triple) (Stats, error) {
	r.store.AddBatch(input)
	return r.Close(ctx)
}

// Close computes the closure of the store's current contents.
func (r *Reasoner) Close(ctx context.Context) (Stats, error) {
	var stats Stats
	delta := r.store.Snapshot()
	for len(delta) > 0 {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		stats.Rounds++
		var emitted []rdf.Triple
		for _, rule := range r.ruleset {
			rule.Apply(r.store, delta, func(t rdf.Triple) {
				emitted = append(emitted, t)
			})
		}
		stats.Derivations += int64(len(emitted))
		fresh := r.store.AddBatch(emitted)
		stats.Inferred += int64(len(fresh))
		switch r.strategy {
		case SemiNaive:
			delta = fresh
		default: // Naive: re-walk everything, as batch engines do.
			if len(fresh) == 0 {
				delta = nil
			} else {
				delta = r.store.Snapshot()
			}
		}
	}
	stats.Duplicates = stats.Derivations - stats.Inferred
	return stats, nil
}

// Closure is a convenience that materialises input over a fresh store and
// returns the store, for use as a test oracle.
func Closure(ctx context.Context, ruleset []rules.Rule, input []rdf.Triple) (*store.Store, Stats, error) {
	st := store.New()
	r := New(st, ruleset, SemiNaive)
	stats, err := r.Materialize(ctx, input)
	return st, stats, err
}
