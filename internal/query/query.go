// Package query implements basic graph pattern (BGP) matching over the
// triple store: conjunctive queries with variables, evaluated by
// backtracking joins with a cost-based join order.
//
// Slider is a materialisation reasoner — after inference, answering a
// conjunctive query is pure pattern matching against the store, which is
// exactly the query-time cheapness the paper chooses forward chaining
// for. The planner orders patterns cheapest-first by estimated
// cardinality (predicate extent divided by the distinct-subject/object
// counts of positions already bound), propagating bound variables as it
// goes; the executor additionally detects pattern pairs whose only
// unbound variable coincides and answers them with a galloping
// intersection of the store's sorted extents instead of
// enumerate-then-filter. The package also ships a small SPARQL-like
// SELECT parser (ParseSelect) so applications and the CLI can express
// queries as text.
package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// Node is one position of a triple pattern: either a variable or a ground
// term.
type Node struct {
	// Var is the variable name (without '?') when IsVar.
	Var   string
	IsVar bool
	// Term is the ground term when !IsVar.
	Term rdf.Term
}

// V returns a variable node.
func V(name string) Node { return Node{Var: name, IsVar: true} }

// T returns a ground-term node.
func T(t rdf.Term) Node { return Node{Term: t} }

// String renders the node in query syntax.
func (n Node) String() string {
	if n.IsVar {
		return "?" + n.Var
	}
	return n.Term.String()
}

// Pattern is one triple pattern.
type Pattern struct {
	S, P, O Node
}

// String renders the pattern in query syntax.
func (p Pattern) String() string {
	return p.S.String() + " " + p.P.String() + " " + p.O.String() + " ."
}

// Vars returns the distinct variable names in the pattern.
func (p Pattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, n := range []Node{p.S, p.P, p.O} {
		if n.IsVar && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	return out
}

// Query is a basic graph pattern with a projection. An empty Select
// projects all variables.
type Query struct {
	Select   []string
	Patterns []Pattern
	// Limit caps the number of solutions when HasLimit is set (the
	// SPARQL LIMIT clause; zero is legal and yields no solutions).
	Limit    int
	HasLimit bool
	// Offset skips that many solutions before any are returned.
	Offset int
	// NaiveOrder evaluates patterns exactly as written and disables the
	// galloping join intersection — the pre-optimisation reference the
	// planner's answers are checked against in tests.
	NaiveOrder bool
}

// Source is the triple access a query evaluation needs. A frozen
// *store.View (one immutable root of the store) implements it, and so
// does the live *store.Store, each of whose reads reads its current
// root: the same executor serves ad-hoc queries and snapshot-isolated
// read sessions.
type Source interface {
	// PredicateStats reports the predicate's pair count and upper bounds
	// on its distinct subject and object counts — the cardinalities the
	// planner orders patterns by.
	PredicateStats(p rdf.ID) (triples, subjects, objects int)
	// MatchEach streams every triple matching the pattern (rdf.Any
	// wildcards) to f until f returns false.
	MatchEach(pattern rdf.Triple, f func(rdf.Triple) bool)
	// ObjectsAppend and SubjectsAppend append a (predicate, subject) or
	// (predicate, object) extent to dst, ascending and duplicate-free —
	// the operands of the galloping join intersection.
	ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID
	SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID
}

// Vars returns the distinct variable names across all patterns, in first
// appearance order.
func (q Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range q.Patterns {
		for _, v := range p.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Binding maps variable names to terms.
type Binding map[string]rdf.Term

// Execute evaluates the query against the source, resolving ground
// terms through dict. Results are one Binding per solution, restricted
// to the projection, in deterministic (sorted) order with duplicates
// removed. LIMIT/OFFSET are applied after sorting, so the answer is the
// deterministic k-th page; use ExecuteFunc when early termination
// matters more than ordering.
//
// When ctx holds a span, planning and evaluation record child spans
// into it. A non-nil m records planning/evaluation latency, the
// planner's cost estimate and result counts; a non-nil ex is filled
// with the execution profile: chosen join order vs the written one,
// per-pattern estimated vs actual rows, whether the galloping path ran,
// per-stage micros.
func Execute(ctx context.Context, src Source, dict *rdf.Dictionary, q Query, m *Metrics, ex *Explain) ([]Binding, error) {
	var t0 time.Time
	if m != nil {
		t0 = obs.NowIfEnabled()
		m.Queries.Inc()
	}
	results := map[string]Binding{}
	err := enumerate(ctx, src, dict, q, m, ex, func(key string, b Binding) bool {
		results[key] = b
		return true
	})
	if m != nil {
		m.ExecSeconds.ObserveSince(t0)
		m.Rows.Add(int64(len(results)))
	}
	if ex != nil {
		ex.Rows = int64(len(results))
	}
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if q.Offset > 0 {
		if q.Offset >= len(keys) {
			keys = nil
		} else {
			keys = keys[q.Offset:]
		}
	}
	if q.HasLimit {
		limit := q.Limit
		if limit < 0 {
			limit = 0
		}
		if limit < len(keys) {
			keys = keys[:limit]
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([]Binding, 0, len(keys))
	for _, k := range keys {
		out = append(out, results[k])
	}
	return out, nil
}

// ExecuteFunc evaluates the query and streams each distinct solution to
// emit as it is found, in discovery (unspecified) order. Evaluation
// stops as soon as emit returns false, OFFSET solutions have been
// skipped and LIMIT solutions emitted, so bounded queries never
// enumerate — let alone materialise — the full result set. Only the
// deduplication set (one key per distinct solution seen, capped by
// OFFSET+LIMIT when set) is held in memory. This is the executor behind
// the serving layer's streamed bindings.
//
// ctx, m and ex are as for Execute; ex.Rows counts the solutions
// actually emitted — after deduplication, OFFSET and LIMIT — matching
// what the caller streamed.
func ExecuteFunc(ctx context.Context, src Source, dict *rdf.Dictionary, q Query, m *Metrics, ex *Explain, emit func(Binding) bool) error {
	var t0 time.Time
	if m != nil {
		t0 = obs.NowIfEnabled()
		m.Queries.Inc()
		defer func() { m.ExecSeconds.ObserveSince(t0) }()
	}
	if q.HasLimit && q.Limit <= 0 {
		// Nothing can be emitted; skip evaluation entirely.
		return validate(q)
	}
	seen := map[string]struct{}{}
	skipped, emitted := 0, 0
	err := enumerate(ctx, src, dict, q, m, ex, func(key string, b Binding) bool {
		if _, dup := seen[key]; dup {
			return true
		}
		seen[key] = struct{}{}
		if skipped < q.Offset {
			skipped++
			return true
		}
		if m != nil {
			m.Rows.Inc()
		}
		if !emit(b) {
			return false
		}
		emitted++
		return !q.HasLimit || emitted < q.Limit
	})
	if ex != nil {
		ex.Rows = int64(emitted)
	}
	return err
}

// validate checks the query's static shape: a non-empty BGP and a
// projection restricted to variables the patterns use.
func validate(q Query) error {
	if len(q.Patterns) == 0 {
		return fmt.Errorf("query: empty basic graph pattern")
	}
	allVars := q.Vars()
	for _, v := range q.Select {
		found := false
		for _, av := range allVars {
			if v == av {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("query: projected variable ?%s not used in any pattern", v)
		}
	}
	return nil
}

// enumerate runs the backtracking join and hands every complete
// (possibly duplicate) solution to yield as (dedup key, binding), until
// yield returns false. A span in ctx gets query.plan / query.exec
// children; a non-nil ex is filled with the execution profile (the
// caller sets ex.Rows — emitted-row semantics differ per entry point).
func enumerate(ctx context.Context, src Source, dict *rdf.Dictionary, q Query, m *Metrics, ex *Explain, yield func(key string, b Binding) bool) error {
	if err := validate(q); err != nil {
		return err
	}
	tsp := trace.FromContext(ctx)
	if ex != nil {
		ex.NaiveOrder = q.NaiveOrder
		ex.Patterns = make([]PatternExplain, len(q.Patterns))
		for i, pat := range q.Patterns {
			ex.Patterns[i] = PatternExplain{Pattern: pat.String(), Step: -1}
		}
	}
	proj := q.Select
	if len(proj) == 0 {
		proj = q.Vars()
	}

	// Encode ground terms once. An unknown ground term means an empty
	// result, not an error.
	enc := make([]idPattern, len(q.Patterns))
	for i, pat := range q.Patterns {
		var ip idPattern
		var ok bool
		if ip.s, ip.sv, ok = encodeNode(dict, pat.S); !ok {
			return nil
		}
		if ip.p, ip.pv, ok = encodeNode(dict, pat.P); !ok {
			return nil
		}
		if ip.o, ip.ov, ok = encodeNode(dict, pat.O); !ok {
			return nil
		}
		enc[i] = ip
	}

	// Backtracking join over ID bindings.
	binding := map[string]rdf.ID{}
	var order []int
	var planT0 time.Time
	if ex != nil {
		planT0 = time.Now()
	}
	if q.NaiveOrder {
		order = make([]int, len(enc))
		for i := range order {
			order[i] = i
		}
		if ex != nil {
			var ests []float64
			ests, ex.PlanCost = estimateFixed(src, enc, order)
			for k, idx := range order {
				ex.Patterns[idx].Step = k
				ex.Patterns[idx].EstRows = ests[k]
			}
		}
	} else {
		var p0 time.Time
		if m != nil {
			p0 = obs.NowIfEnabled()
		}
		psp := tsp.Child("query.plan")
		var planCost float64
		var ests []float64
		order, planCost, ests = planOrder(src, enc)
		psp.End()
		if m != nil {
			m.PlanSeconds.ObserveSince(p0)
			m.PlanCost.Observe(planCost)
		}
		if ex != nil {
			ex.PlanCost = planCost
			for k, idx := range order {
				ex.Patterns[idx].Step = k
				ex.Patterns[idx].EstRows = ests[k]
			}
		}
	}
	if ex != nil {
		ex.Order = append([]int(nil), order...)
		ex.PlanMicros = time.Since(planT0).Microseconds()
	}
	// done marks patterns already satisfied ahead of their turn by a
	// galloping intersection (indexed by pattern, not step).
	done := make([]bool, len(enc))
	// Per-pattern execution profile (indexed like enc), collected only
	// when an explain was requested — the plain path never touches it.
	var actual, probes []int64
	var galloped []bool
	if ex != nil {
		actual = make([]int64, len(enc))
		probes = make([]int64, len(enc))
		galloped = make([]bool, len(enc))
	}
	// bufA/bufB are scratch for the two probed extents; they are fully
	// consumed before the recursion below re-enters, so sharing them
	// across levels is safe. The intersection itself is iterated during
	// recursion and must be fresh per level.
	var bufA, bufB []rdf.ID

	var walk func(step int) bool
	walk = func(step int) bool {
		if step == len(order) {
			b := Binding{}
			var key strings.Builder
			for _, v := range proj {
				term, _ := dict.Term(binding[v])
				b[v] = term
				key.WriteString(term.String())
				key.WriteByte('|')
			}
			return yield(key.String(), b)
		}
		idx := order[step]
		if done[idx] {
			return walk(step + 1)
		}
		ip := enc[idx]
		if !q.NaiveOrder {
			if jp, ok := probeFor(ip, binding); ok {
				// This pattern's solutions are one sorted extent. If a
				// later pattern's only unbound variable is the same one,
				// solve both at once: gallop-intersect the two extents
				// and bind the variable from the (typically far smaller)
				// intersection, skipping the partner when its turn comes.
				for s2 := step + 1; s2 < len(order); s2++ {
					j := order[s2]
					if done[j] {
						continue
					}
					jp2, ok2 := probeFor(enc[j], binding)
					if !ok2 || jp2.v != jp.v {
						continue
					}
					bufA = jp.extent(src, bufA[:0])
					bufB = jp2.extent(src, bufB[:0])
					inter := rdf.IntersectSortedAppend(nil, bufA, bufB)
					if ex != nil {
						// The intersection answers both patterns at once;
						// each is credited the joint row count.
						probes[idx]++
						probes[j]++
						actual[idx] += int64(len(inter))
						actual[j] += int64(len(inter))
						galloped[idx] = true
						galloped[j] = true
					}
					done[j] = true
					cont := true
					for _, id := range inter {
						binding[jp.v] = id
						cont = walk(step + 1)
						delete(binding, jp.v)
						if !cont {
							break
						}
					}
					done[j] = false
					return cont
				}
			}
		}
		resolve := func(id rdf.ID, v string) rdf.ID {
			if v == "" {
				return id
			}
			if bound, ok := binding[v]; ok {
				return bound
			}
			return rdf.Any
		}
		s := resolve(ip.s, ip.sv)
		p := resolve(ip.p, ip.pv)
		o := resolve(ip.o, ip.ov)
		cont := true
		if ex != nil {
			probes[idx]++
		}
		src.MatchEach(rdf.T(s, p, o), func(m rdf.Triple) bool {
			if ex != nil {
				actual[idx]++
			}
			var assigned []string
			bind := func(v string, id rdf.ID) bool {
				if v == "" {
					return true
				}
				if bound, ok := binding[v]; ok {
					return bound == id
				}
				binding[v] = id
				assigned = append(assigned, v)
				return true
			}
			// Same variable twice in one pattern must agree.
			if bind(ip.sv, m.S) && bind(ip.pv, m.P) && bind(ip.ov, m.O) {
				cont = walk(step + 1)
			}
			for _, v := range assigned {
				delete(binding, v)
			}
			return cont
		})
		return cont
	}
	esp := tsp.Child("query.exec")
	var execT0 time.Time
	if ex != nil {
		execT0 = time.Now()
	}
	walk(0)
	esp.End()
	if ex != nil {
		ex.ExecMicros = time.Since(execT0).Microseconds()
		for i := range ex.Patterns {
			ex.Patterns[i].ActualRows = actual[i]
			ex.Patterns[i].Probes = probes[i]
			ex.Patterns[i].Galloped = galloped[i]
		}
	}
	return nil
}

// joinProbe describes a pattern that, under the current binding, has
// exactly one unbound variable in the subject or object position with
// everything else concrete — the shape whose solution set is a single
// sorted extent the store can hand over directly.
type joinProbe struct {
	v      string // the single unbound variable
	p      rdf.ID // concrete predicate
	other  rdf.ID // concrete value of the opposite position
	varIsS bool   // variable in subject position → probe SubjectsAppend
}

// probeFor classifies ip under binding, reporting whether it has the
// single-extent shape.
func probeFor(ip idPattern, binding map[string]rdf.ID) (joinProbe, bool) {
	var jp joinProbe
	conc := func(id rdf.ID, v string) (rdf.ID, bool) {
		if v == "" {
			return id, true
		}
		b, ok := binding[v]
		return b, ok
	}
	p, ok := conc(ip.p, ip.pv)
	if !ok {
		return jp, false
	}
	_, sBound := binding[ip.sv]
	_, oBound := binding[ip.ov]
	sVar := ip.sv != "" && !sBound
	oVar := ip.ov != "" && !oBound
	if sVar == oVar {
		// Zero or two unbound positions — including ?x p ?x, whose
		// diagonal constraint a plain extent cannot express.
		return jp, false
	}
	jp.p = p
	if sVar {
		jp.v = ip.sv
		jp.varIsS = true
		jp.other, _ = conc(ip.o, ip.ov)
	} else {
		jp.v = ip.ov
		jp.other, _ = conc(ip.s, ip.sv)
	}
	return jp, true
}

// extent appends the probe's sorted solution extent to dst.
func (jp joinProbe) extent(src Source, dst []rdf.ID) []rdf.ID {
	if jp.varIsS {
		return src.SubjectsAppend(dst, jp.p, jp.other)
	}
	return src.ObjectsAppend(dst, jp.p, jp.other)
}

// encodeNode resolves a ground node through the dictionary. ok=false
// means the term is unknown (query has no solutions).
func encodeNode(dict *rdf.Dictionary, n Node) (rdf.ID, string, bool) {
	if n.IsVar {
		return rdf.Any, n.Var, true
	}
	id, ok := dict.Lookup(n.Term)
	if !ok {
		return rdf.Any, "", false
	}
	return id, "", true
}

// idPattern is a triple pattern with ground terms resolved to IDs (Any
// for variables) and variable names kept alongside ("" when ground).
type idPattern struct {
	s, p, o    rdf.ID
	sv, pv, ov string
}

// costEstimator is the planner's per-placement cardinality model,
// factored out so the same estimates back both the greedy planner
// (planOrder) and the explain profile of an as-written order
// (estimateFixed). The estimate for a pattern is its predicate's
// extent divided by the partition's distinct-subject count when the
// subject is ground or already bound, and by the distinct-object count
// likewise — i.e. the expected number of matching triples per probe,
// from the per-partition stats the store maintains.
type costEstimator struct {
	src   Source
	bound map[string]bool
}

func newCostEstimator(src Source) *costEstimator {
	return &costEstimator{src: src, bound: map[string]bool{}}
}

// cost estimates a pattern's cardinality under the currently bound
// variables.
func (ce *costEstimator) cost(ip idPattern) float64 {
	if ip.pv != "" && !ce.bound[ip.pv] {
		// Unknown predicate: a scan of every partition.
		return 1e18
	}
	if ip.pv != "" {
		// Predicate bound to a runtime value: extent unknowable at
		// plan time; assume expensive but better than a full scan.
		return 1e12
	}
	triples, ns, no := ce.src.PredicateStats(ip.p)
	if triples == 0 {
		return 0 // empty extent cuts the whole join immediately
	}
	sKnown := ip.sv == "" || ce.bound[ip.sv]
	oKnown := ip.ov == "" || ce.bound[ip.ov]
	if sKnown && oKnown {
		return 0.5 // existence probe
	}
	// A live pair lies in an add run, so both key counts are ≥ 1.
	c := float64(triples)
	if sKnown {
		c /= float64(ns)
	}
	if oKnown {
		c /= float64(no)
	}
	if c < 1 {
		c = 1
	}
	return c
}

// connected reports whether the pattern shares a variable with the
// already bound set.
func (ce *costEstimator) connected(ip idPattern) bool {
	for _, v := range []string{ip.sv, ip.pv, ip.ov} {
		if v != "" && ce.bound[v] {
			return true
		}
	}
	return false
}

// bind marks the pattern's variables bound for subsequent estimates.
func (ce *costEstimator) bind(ip idPattern) {
	for _, v := range []string{ip.sv, ip.pv, ip.ov} {
		if v != "" {
			ce.bound[v] = true
		}
	}
}

// planOrder orders patterns greedily by estimated cardinality,
// cheapest first, propagating bound variables: after a pattern is
// placed, its variables count as bound when estimating the remaining
// patterns, so a selective early pattern makes its join partners cheap.
// Patterns connected to the already bound variables are preferred over
// disconnected ones regardless of cost: a Cartesian product is always
// worse than its estimate looks. Ties break on input position, so
// plans are deterministic. The second return is the plan's total
// estimated cost — the sum of the chosen patterns' per-placement
// cardinality estimates — surfaced as a metric so plan-time
// expectations can be compared against observed latency; the third is
// those per-placement estimates, indexed like order, which the explain
// profile reports against actual rows.
func planOrder(src Source, pats []idPattern) ([]int, float64, []float64) {
	ce := newCostEstimator(src)
	remaining := make([]bool, len(pats))
	for i := range remaining {
		remaining[i] = true
	}
	order := make([]int, 0, len(pats))
	ests := make([]float64, 0, len(pats))
	total := 0.0
	for len(order) < len(pats) {
		best, bestCost, bestConn := -1, 0.0, false
		for i := range pats {
			if !remaining[i] {
				continue
			}
			c := ce.cost(pats[i])
			conn := ce.connected(pats[i]) || len(order) == 0
			better := best == -1 ||
				(conn && !bestConn) ||
				(conn == bestConn && c < bestCost)
			if better {
				best, bestCost, bestConn = i, c, conn
			}
		}
		order = append(order, best)
		ests = append(ests, bestCost)
		remaining[best] = false
		total += bestCost
		ce.bind(pats[best])
	}
	return order, total, ests
}

// estimateFixed runs the cost model over a caller-fixed order (the
// NaiveOrder path) so its explain profile carries the same estimated-
// vs-actual comparison a planned query gets. Returns per-placement
// estimates indexed like order, plus their total.
func estimateFixed(src Source, pats []idPattern, order []int) ([]float64, float64) {
	ce := newCostEstimator(src)
	ests := make([]float64, len(order))
	total := 0.0
	for k, idx := range order {
		ests[k] = ce.cost(pats[idx])
		total += ests[k]
		ce.bind(pats[idx])
	}
	return ests, total
}
