// Package maintenance implements incremental *deletion* for the
// materialised store using delete-and-rederive (DRed; Gupta, Mumick &
// Subrahmanian, SIGMOD 1993), adapted to Slider's rule interface.
//
// The paper's conclusion observes that most stream reasoners "limit the
// amount of data in the knowledge base by eliminating former triples";
// DRed is the standard way to do that elimination without re-running
// materialisation from scratch:
//
//  1. Overdelete — starting from the retracted explicit triples, compute
//     (semi-naively, against the still-intact source) every triple with a
//     derivation path through a retracted triple. Explicit triples that
//     are not being retracted are never suspected: they are axioms.
//  2. Remove the whole suspect set from the store.
//  3. Rederive — suspects with an alternative derivation grounded in the
//     surviving explicit triples reappear, everything else stays gone.
//
// Which triples are explicit is read from the store under analysis
// (store.View.Explicit): the store keeps one bit per pair, set by
// AssertBatch, so a frozen view answers membership and explicitness from
// the same instant.
//
// The classic formulation of step 3 re-runs semi-naive inference over the
// whole surviving store — O(store) work, and the last O(store) writer
// stall in the system when run under the ingest lock. This package
// instead makes retraction cost proportional to the *suspect set*
// (following the line of work on answering queries under updates, e.g.
// Berkholz et al., "Answering FO+MOD queries under updates"), in two
// phases that split cleanly across the locking regimes the caller can
// offer:
//
//   - Prepare runs against a *frozen copy-on-write view* of the
//     materialised store (the PR 3/4 machinery) while ingest continues:
//     it overdeletes from the requested triples, then, instead of
//     re-deriving the world, asks each suspect the targeted backward
//     question "does some rule derive you in one step from premises
//     outside the (still-dead) suspect set?" (rules.Supporter) and
//     propagates restorations forward seeded only by restored suspects.
//
//   - Pass.Apply runs in a short exclusive window over the quiescent
//     live store: it validates the prepared answer against whatever
//     landed mid-pass (if anything did, it re-runs the suspect-local
//     analysis on the live store, seeded by the prepared dead set plus
//     the actual retraction seeds — still O(affected), not O(store)),
//     then removes the final dead set and demotes the retracted
//     explicit triples that keep an alternative derivation. Apply never
//     blocks on I/O, takes no context, and cannot fail: once entered,
//     it runs to completion, so a caller that logged the retraction
//     beforehand never ends up half-applied.
//
// Step 1 over-approximates, so every triple outside the suspect set has a
// derivation avoiding every suspect; the support fixpoint restores
// exactly the suspects grounded (transitively) outside the final dead
// set. The result equals the closure of the surviving explicit triples —
// the property tests assert this against from-scratch recomputation.
//
// Rulesets containing rules without a backward face (rules.CanSupport)
// use PrepareFull instead: classic full-store rederivation, quiescent and
// exclusive — the compatibility path, and the reference the property
// tests check the suspect-local path against.
package maintenance

import (
	"context"

	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
)

// Stats reports what a retraction did.
type Stats struct {
	// Retracted counts the requested triples that were explicit and no
	// longer are: removed, or demoted to inferred when an alternative
	// derivation keeps them.
	Retracted int
	// Suspects counts the triples the overdelete phases marked as
	// potentially losing their last derivation (including the validate
	// extension's, and the retracted explicit triples themselves).
	Suspects int
	// Overdeleted counts derived triples actually removed from the store
	// (suspects that found no alternative support, not counting the
	// retracted explicit triples themselves).
	Overdeleted int
	// Rederived counts suspects that survived: an alternative derivation
	// grounded outside the dead set restored them.
	Rederived int
	// Rounds counts fixpoint rounds across the overdelete, support and
	// validate phases.
	Rounds int
	// Validated counts suspects added by the exclusive validate phase —
	// consequences of triples that landed between the freeze and the
	// exclusive window (0 when nothing landed and the fast path ran).
	Validated int
	// ExclusiveMicros is the wall-clock of the exclusive validate-and-
	// apply window in microseconds, filled in by the caller that holds
	// the locks.
	ExclusiveMicros int64
	// PrepareMicros is the wall-clock of the concurrent prepare phase
	// (freeze plus suspect analysis) in microseconds, filled in by the
	// caller; zero when the classic full-rederive path ran.
	PrepareMicros int64
	// TwoPhase reports whether the suspect-local path ran (false: classic
	// full-store rederivation).
	TwoPhase bool
}

// tripleSet is a set of triples.
type tripleSet map[rdf.Triple]struct{}

func (s tripleSet) has(t rdf.Triple) bool { _, ok := s[t]; return ok }

// masked is a Source with a dead set subtracted: the alive view the
// support checks and seeded forward propagation run against. The dead
// map is shared with the caller, which shrinks it as suspects are
// restored — unmasking them for subsequent probes.
type masked struct {
	src  rules.Source
	dead tripleSet
}

func (m *masked) Contains(t rdf.Triple) bool {
	return !m.dead.has(t) && m.src.Contains(t)
}

func (m *masked) ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID {
	n := len(dst)
	dst = m.src.ObjectsAppend(dst, p, s)
	kept := dst[:n]
	for _, o := range dst[n:] {
		if !m.dead.has(rdf.Triple{S: s, P: p, O: o}) {
			kept = append(kept, o)
		}
	}
	return kept
}

func (m *masked) SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID {
	n := len(dst)
	dst = m.src.SubjectsAppend(dst, p, o)
	kept := dst[:n]
	for _, s := range dst[n:] {
		if !m.dead.has(rdf.Triple{S: s, P: p, O: o}) {
			kept = append(kept, s)
		}
	}
	return kept
}

func (m *masked) ForEachWithPredicate(p rdf.ID, f func(s, o rdf.ID) bool) {
	m.src.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
		if m.dead.has(rdf.Triple{S: s, P: p, O: o}) {
			return true
		}
		return f(s, o)
	})
}

func (m *masked) ForEach(f func(rdf.Triple) bool) {
	m.src.ForEach(func(t rdf.Triple) bool {
		if m.dead.has(t) {
			return true
		}
		return f(t)
	})
}

func (m *masked) Predicates() []rdf.ID { return m.src.Predicates() }

var _ rules.Source = (*masked)(nil)

// Pass is a prepared, not-yet-applied retraction: the output of Prepare
// (or PrepareFull), consumed exactly once by Apply.
type Pass struct {
	ruleset  []rules.Rule
	toDelete []rdf.Triple
	seedSet  tripleSet // toDelete ∩ explicit as estimated at prepare time
	dead     tripleSet // suspects with no support found against the frozen view
	prepared tripleSet // every suspect phase A considered, restored or not
	rounds   int

	full bool // no support faces: Apply re-derives from the full store

	// storeVersion is the store version at freeze time; Apply skips
	// validation when it still matches (nothing landed, and nothing was
	// asserted, mid-pass).
	storeVersion uint64
}

// overdelete computes the suspect closure over src: seeds plus every
// src-present triple with a derivation path through a seed, skipping
// axioms (per isAxiom). forced pre-seeds the suspect set with triples
// that must be treated as dying regardless of derivability (the prepared
// dead set, during validation). Joins run against the still-intact src so
// multi-premise rules see all premises. Read-only.
//
// stop is polled once per round and aborts the closure when it returns
// an error; nil means uninterruptible (the exclusive retraction window,
// where a deliberately context-free call graph guarantees a logged
// retraction is always fully applied).
func overdelete(stop func() error, src rules.Source, ruleset []rules.Rule,
	isAxiom func(rdf.Triple) bool, seeds []rdf.Triple, forced tripleSet) (tripleSet, int, error) {

	suspects := make(tripleSet, len(seeds)*2+len(forced))
	delta := make([]rdf.Triple, 0, len(seeds)+len(forced))
	for _, t := range seeds {
		if !suspects.has(t) {
			suspects[t] = struct{}{}
			delta = append(delta, t)
		}
	}
	for t := range forced {
		if !suspects.has(t) {
			suspects[t] = struct{}{}
			delta = append(delta, t)
		}
	}
	rounds := 0
	for len(delta) > 0 {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, rounds, err
			}
		}
		rounds++
		var derived []rdf.Triple
		for _, r := range ruleset {
			r.Apply(src, delta, func(t rdf.Triple) { derived = append(derived, t) })
		}
		delta = delta[:0]
		for _, t := range derived {
			if suspects.has(t) {
				continue
			}
			if isAxiom(t) {
				continue // axioms survive
			}
			if !src.Contains(t) {
				continue // not part of the materialisation
			}
			suspects[t] = struct{}{}
			delta = append(delta, t)
		}
	}
	return suspects, rounds, nil
}

// restore shrinks dead to the suspects with no derivation grounded
// outside it: a backward support sweep over every suspect, then forward
// semi-naive propagation seeded only by the restored ones. alive is the
// masked source sharing the dead set. Returns the rounds spent. The
// check function lets the validate phase honour axiom-hood (a suspect
// re-asserted mid-pass survives unconditionally). stop is polled as in
// overdelete; nil means uninterruptible.
func restore(stop func() error, alive *masked, ruleset []rules.Rule,
	dead tripleSet, isAxiom func(rdf.Triple) bool) (int, error) {

	if len(dead) == 0 {
		return 0, nil
	}
	rounds := 1
	var delta []rdf.Triple
	for t := range dead {
		if stop != nil {
			if err := stop(); err != nil {
				return rounds, err
			}
		}
		if isAxiom(t) || rules.Supported(ruleset, alive, t) {
			delete(dead, t)
			delta = append(delta, t)
		}
	}
	for len(delta) > 0 && len(dead) > 0 {
		if stop != nil {
			if err := stop(); err != nil {
				return rounds, err
			}
		}
		rounds++
		var derived []rdf.Triple
		for _, r := range ruleset {
			r.Apply(alive, delta, func(t rdf.Triple) { derived = append(derived, t) })
		}
		delta = delta[:0]
		for _, t := range derived {
			if dead.has(t) {
				delete(dead, t)
				delta = append(delta, t)
			}
		}
	}
	return rounds, nil
}

// Prepare runs the read-only analysis of a suspect-local retraction
// against a frozen view of the materialised store: overdelete seeded by
// the requested triples that are explicit in it, then the
// backward-support/forward-propagation fixpoint that decides which
// suspects keep an alternative derivation. Ingest may continue
// concurrently — Prepare mutates nothing, and cancelling it leaves the
// knowledge base untouched.
//
// frozen must be a consistent (quiescent-at-freeze) view of the closure;
// the store version the pass is keyed to is the one it holds
// (View.Version), and the view answers explicitness as of the same
// instant. The ruleset must pass rules.AllSupport.
func Prepare(ctx context.Context, frozen *store.View, ruleset []rules.Rule, toDelete []rdf.Triple) (*Pass, error) {
	p := &Pass{
		ruleset:      ruleset,
		toDelete:     toDelete,
		seedSet:      make(tripleSet, len(toDelete)),
		storeVersion: frozen.Version(),
	}
	var seeds []rdf.Triple
	for _, t := range toDelete {
		if !p.seedSet.has(t) && frozen.Explicit(t) {
			p.seedSet[t] = struct{}{}
			seeds = append(seeds, t)
		}
	}
	isAxiom := func(t rdf.Triple) bool {
		return !p.seedSet.has(t) && frozen.Explicit(t)
	}
	var stamp frozenStamp
	if invariantsEnabled {
		stamp = stampFrozen(frozen, seeds)
	}
	suspects, rounds, err := overdelete(ctx.Err, frozen, ruleset, isAxiom, seeds, nil)
	if err != nil {
		return nil, err
	}
	p.rounds = rounds
	p.prepared = make(tripleSet, len(suspects))
	for t := range suspects {
		p.prepared[t] = struct{}{}
	}
	p.dead = suspects // restore shrinks it in place
	alive := &masked{src: frozen, dead: p.dead}
	// Axiom-hood was already honoured during overdelete; the sweep only
	// asks for alternative derivations.
	rounds, err = restore(ctx.Err, alive, ruleset, p.dead, func(rdf.Triple) bool { return false })
	p.rounds += rounds
	if err != nil {
		return nil, err
	}
	if invariantsEnabled {
		checkFrozenStamp(frozen, stamp)
		assertPassConsistent(p)
	}
	return p, nil
}

// PrepareFull is the classic-DRed preparation for rulesets without a
// backward support face: overdelete only, against the live (quiescent)
// store; Apply then removes every suspect and re-derives from the full
// surviving store. The caller must hold the store exclusive and
// quiescent from before PrepareFull through Apply. Cancelling PrepareFull
// leaves the knowledge base untouched.
func PrepareFull(ctx context.Context, st *store.Store, ruleset []rules.Rule, toDelete []rdf.Triple) (*Pass, error) {
	p := &Pass{
		ruleset:  ruleset,
		toDelete: toDelete,
		seedSet:  make(tripleSet, len(toDelete)),
		full:     true,
	}
	var seeds []rdf.Triple
	for _, t := range toDelete {
		if !p.seedSet.has(t) && st.Explicit(t) {
			p.seedSet[t] = struct{}{}
			seeds = append(seeds, t)
		}
	}
	isAxiom := func(t rdf.Triple) bool {
		return !p.seedSet.has(t) && st.Explicit(t)
	}
	suspects, rounds, err := overdelete(ctx.Err, st, ruleset, isAxiom, seeds, nil)
	if err != nil {
		return nil, err
	}
	p.rounds = rounds
	p.prepared = suspects // full path: dead == prepared, nothing restored
	p.dead = suspects
	return p, nil
}

// Apply finishes the retraction against the quiescent live store: it
// validates the prepared dead set against anything that landed after the
// freeze, removes the final dead set from the store and demotes the
// retracted triples that survive it to inferred ones. The caller must
// hold the store exclusive (no concurrent inference or ingest) for the
// duration.
//
// Apply is deliberately uninterruptible — its whole call graph is
// context-free (enforced by slidervet's exclusivewindow checker),
// performs no I/O and cannot fail — so a write-ahead-logged retraction
// is always fully applied once this is called and the logged state
// never diverges from the live one.
func (p *Pass) Apply(st *store.Store) Stats {
	stats := Stats{TwoPhase: !p.full, Rounds: p.rounds, Suspects: len(p.prepared)}

	// The seeds as they stand now: toDelete triples that are explicit in
	// the exclusive window (mid-pass asserts may have added some,
	// including re-asserts of prepared suspects).
	seedSet := make(tripleSet, len(p.toDelete))
	var seeds []rdf.Triple
	for _, t := range p.toDelete {
		if !seedSet.has(t) && st.Explicit(t) {
			seedSet[t] = struct{}{}
			seeds = append(seeds, t)
		}
	}

	dead := p.dead
	switch {
	case p.full:
		// Classic DRed: every suspect dies now, rederivation resurrects.
	case st.Version() == p.storeVersion:
		// Fast path: nothing landed between the freeze and this window —
		// the frozen analysis is exact.
	default:
		// Triples landed mid-pass. Their consequences may lean on dead
		// suspects (they must die too), and they may newly support dead
		// suspects (those must survive). Re-run the suspect-local
		// analysis on the live store, seeded by the actual seeds and
		// forced by the prepared dead set — O(affected), not O(store).
		isAxiom := func(t rdf.Triple) bool {
			return !seedSet.has(t) && st.Explicit(t)
		}
		suspects, rounds, _ := overdelete(nil, st, p.ruleset, isAxiom, seeds, dead)
		stats.Rounds += rounds
		// Genuinely new suspects only: the live re-overdelete also
		// rediscovers phase-A suspects (restored ones included), which
		// are already counted in Suspects.
		for t := range suspects {
			if !p.prepared.has(t) {
				stats.Validated++
			}
		}
		stats.Suspects += stats.Validated
		dead = suspects
		alive := &masked{src: st, dead: dead}
		rounds, _ = restore(nil, alive, p.ruleset, dead, isAxiom)
		stats.Rounds += rounds
	}

	// Point of no return: remove the dead suspects, the dead seeds among
	// them, and demote the seeds that survive. Each write appends its
	// runs per predicate.
	stats.Retracted = len(seeds)
	var deadSeeds, deadRest, kept []rdf.Triple
	for t := range dead {
		if seedSet.has(t) {
			deadSeeds = append(deadSeeds, t)
		} else {
			deadRest = append(deadRest, t)
		}
	}
	for _, t := range seeds {
		if !dead.has(t) {
			kept = append(kept, t)
		}
	}
	st.RemoveAll(deadSeeds)
	stats.Overdeleted = st.RemoveAll(deadRest)
	st.Demote(kept)

	if p.full {
		// Classic rederive: semi-naive from the whole surviving store.
		delta := st.Snapshot()
		for len(delta) > 0 {
			stats.Rounds++
			var derived []rdf.Triple
			for _, r := range p.ruleset {
				r.Apply(st, delta, func(t rdf.Triple) { derived = append(derived, t) })
			}
			fresh := st.AddBatch(derived)
			for _, t := range fresh {
				if dead.has(t) {
					stats.Rederived++
				}
			}
			delta = fresh
		}
		return stats
	}
	stats.Rederived = stats.Suspects - len(dead)
	p.dead = nil // a Pass is single-use
	return stats
}

// Retract removes the given explicit triples from st and updates the
// materialisation, as a single quiescent-store call: the convenience
// wrapper over Prepare/Apply (suspect-local when every rule has a
// backward support face, classic full rederivation otherwise) used by
// write-ahead-log replay, tests, and callers without a concurrent-ingest
// phase to overlap with. A triple is explicit when st says so
// (store.Store.Explicit); the others in toDelete are left alone.
//
// The store must be quiescent (no concurrent inference) for the duration
// of the call. Cancellation via ctx is honoured only during the
// read-only analysis: once the mutation phase starts it runs to
// completion, so an error return always means "nothing changed".
func Retract(ctx context.Context, st *store.Store, ruleset []rules.Rule, toDelete []rdf.Triple) (Stats, error) {
	var (
		p   *Pass
		err error
	)
	if rules.AllSupport(ruleset) {
		p, err = Prepare(ctx, st.Freeze(), ruleset, toDelete)
	} else {
		p, err = PrepareFull(ctx, st, ruleset, toDelete)
	}
	if err != nil {
		return Stats{}, err
	}
	return p.Apply(st), nil
}
