package query

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// seedChain builds a chain-join fixture: n subjects typed Product, a
// tenth of them madeBy acme, each of those with one label.
func seedChain(t *testing.T) (*store.Store, *rdf.Dictionary) {
	t.Helper()
	dict := rdf.NewDictionary()
	st := store.New()
	add := func(s, p, o rdf.Term) {
		st.Add(dict.EncodeStatement(rdf.NewStatement(s, p, o)))
	}
	typeT := rdf.NewIRI(rdf.IRIType)
	label := rdf.NewIRI(rdf.IRILabel)
	for i := 0; i < 200; i++ {
		s := ex(fmt.Sprintf("p%d", i))
		add(s, typeT, ex("Product"))
		if i%10 == 0 {
			add(s, ex("madeBy"), ex("acme"))
			add(s, label, rdf.NewLiteral(fmt.Sprintf("L%d", i)))
		}
	}
	return st, dict
}

func TestExplainChainJoin(t *testing.T) {
	st, dict := seedChain(t)
	q := Query{
		Select: []string{"name"},
		Patterns: []Pattern{
			{V("p"), T(rdf.NewIRI(rdf.IRIType)), T(ex("Product"))},
			{V("p"), T(ex("madeBy")), T(ex("acme"))},
			{V("p"), T(rdf.NewIRI(rdf.IRILabel)), V("name")},
		},
	}
	var ex Explain
	rows, err := Execute(t.Context(), st, dict, q, nil, &ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 || ex.Rows != 20 {
		t.Fatalf("rows = %d, ex.Rows = %d, want 20", len(rows), ex.Rows)
	}
	if ex.NaiveOrder {
		t.Fatal("NaiveOrder set on a planned query")
	}
	if len(ex.Order) != 3 || len(ex.Patterns) != 3 {
		t.Fatalf("order %v, patterns %v", ex.Order, ex.Patterns)
	}
	// The planner must not open with the 200-row type scan: madeBy (20
	// triples) or the label pattern is cheaper.
	if ex.Order[0] == 0 {
		t.Fatalf("planner opened with the type scan: order %v, ests %+v", ex.Order, ex.Patterns)
	}
	for i, p := range ex.Patterns {
		if p.Step < 0 || p.Step > 2 {
			t.Fatalf("pattern %d has step %d", i, p.Step)
		}
		if p.Probes == 0 {
			t.Fatalf("pattern %d was never probed: %+v", i, p)
		}
		if p.EstRows <= 0 {
			t.Fatalf("pattern %d has no estimate: %+v", i, p)
		}
	}
	if ex.PlanCost <= 0 {
		t.Fatalf("plan cost %v", ex.PlanCost)
	}
}

func TestExplainStarJoin(t *testing.T) {
	st, dict := seedChain(t)
	// Star around ?p: three predicates sharing the subject.
	q := Query{
		Patterns: []Pattern{
			{V("p"), T(rdf.NewIRI(rdf.IRIType)), T(ex("Product"))},
			{V("p"), T(ex("madeBy")), V("who")},
			{V("p"), T(rdf.NewIRI(rdf.IRILabel)), V("name")},
		},
	}
	var ex Explain
	rows, err := Execute(t.Context(), st, dict, q, nil, &ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	// Actual rows must be recorded for every pattern, and the type
	// pattern — evaluated with ?p bound — must report its existence
	// probes rather than a full scan.
	var total int64
	for _, p := range ex.Patterns {
		total += p.ActualRows
	}
	if total == 0 {
		t.Fatalf("no actual rows recorded: %+v", ex.Patterns)
	}
}

// TestExplainNaiveCanBeatPlanner pins an honest case: a skewed dataset
// where the cost model's per-probe averages mislead it into a worse
// total row count than the as-written order. The explain output must
// record the regression, not hide it.
func TestExplainNaiveCanBeatPlanner(t *testing.T) {
	dict := rdf.NewDictionary()
	st := store.New()
	add := func(s, p, o rdf.Term) {
		st.Add(dict.EncodeStatement(rdf.NewStatement(s, p, o)))
	}
	// Predicate p: 1000 triples over 101 distinct subjects, but the
	// subject "big" holds 900 of them — the per-probe average (~10)
	// wildly underestimates a probe on big.
	for i := 0; i < 900; i++ {
		add(ex("big"), ex("p"), ex(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 100; i++ {
		add(ex(fmt.Sprintf("s%d", i)), ex("p"), ex(fmt.Sprintf("w%d", i)))
	}
	// Predicate q: 50 triples whose subjects are p-objects of big.
	for i := 0; i < 50; i++ {
		add(ex(fmt.Sprintf("v%d", i)), ex("q"), ex(fmt.Sprintf("w%d", i)))
	}
	// ?x q ?y . big p ?x — as written, q runs first (50 rows) and each
	// row existence-probes big's extent. The planner estimates the
	// ground-subject pattern at extent/distinct-subjects ≈ 10 rows,
	// places it first, and enumerates big's actual 900.
	q := Query{
		Patterns: []Pattern{
			{V("x"), T(ex("q")), V("y")},
			{T(ex("big")), T(ex("p")), V("x")},
		},
	}
	var planned Explain
	if _, err := Execute(t.Context(), st, dict, q, nil, &planned); err != nil {
		t.Fatal(err)
	}
	qn := q
	qn.NaiveOrder = true
	var naive Explain
	if _, err := Execute(t.Context(), st, dict, qn, nil, &naive); err != nil {
		t.Fatal(err)
	}
	if !naive.NaiveOrder || naive.Order[0] != 0 {
		t.Fatalf("naive explain misreported: %+v", naive)
	}
	if planned.Order[0] != 1 {
		t.Fatalf("skew did not mislead the planner (order %v) — the fixture no longer exercises the case", planned.Order)
	}
	// The planner's estimate for the pattern it placed first must be
	// far below what that pattern actually produced: that gap is the
	// diagnostic ?explain=1 exists to surface.
	first := planned.Patterns[1]
	if first.EstRows > 50 || first.ActualRows < 800 {
		t.Fatalf("expected est≪actual on the skewed pattern, got est %.1f actual %d", first.EstRows, first.ActualRows)
	}
	sum := func(e Explain) (n int64) {
		for _, p := range e.Patterns {
			n += p.ActualRows
		}
		return
	}
	t.Logf("planned order %v: %d pattern rows (est %.1f on skewed pattern); naive order %v: %d pattern rows",
		planned.Order, sum(planned), first.EstRows, naive.Order, sum(naive))
	// Both orders must agree on the answer, and on this skew the
	// as-written order does strictly less row work — recorded, not
	// hidden.
	if planned.Rows != naive.Rows {
		t.Fatalf("planned %d rows, naive %d rows", planned.Rows, naive.Rows)
	}
	if sum(naive) >= sum(planned) {
		t.Fatalf("naive (%d rows) should have beaten the planner (%d rows) here", sum(naive), sum(planned))
	}
	for _, e := range []Explain{planned, naive} {
		for i, p := range e.Patterns {
			if p.Probes == 0 {
				t.Fatalf("pattern %d unprobed in %+v", i, e)
			}
		}
	}
}

// TestExplainGallopedPathRecorded pins the Galloped flag: two patterns
// whose only unbound variable coincides are answered by one sorted
// intersection and both must say so.
func TestExplainGallopedPathRecorded(t *testing.T) {
	dict := rdf.NewDictionary()
	st := store.New()
	add := func(s, p, o rdf.Term) {
		st.Add(dict.EncodeStatement(rdf.NewStatement(s, p, o)))
	}
	for i := 0; i < 64; i++ {
		add(ex(fmt.Sprintf("m%d", i)), ex("likes"), ex("pizza"))
	}
	for i := 32; i < 96; i++ {
		add(ex(fmt.Sprintf("m%d", i)), ex("likes"), ex("pasta"))
	}
	q := Query{
		Patterns: []Pattern{
			{V("x"), T(ex("likes")), T(ex("pizza"))},
			{V("x"), T(ex("likes")), T(ex("pasta"))},
		},
	}
	var ex1 Explain
	rows, err := Execute(t.Context(), st, dict, q, nil, &ex1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 32 {
		t.Fatalf("rows = %d, want 32", len(rows))
	}
	if !ex1.Patterns[0].Galloped || !ex1.Patterns[1].Galloped {
		t.Fatalf("galloping not recorded: %+v", ex1.Patterns)
	}
	if ex1.Patterns[0].ActualRows != 32 || ex1.Patterns[1].ActualRows != 32 {
		t.Fatalf("intersection rows not credited to both: %+v", ex1.Patterns)
	}
	// The same query in naive order must not gallop.
	qn := q
	qn.NaiveOrder = true
	var ex2 Explain
	if _, err := Execute(t.Context(), st, dict, qn, nil, &ex2); err != nil {
		t.Fatal(err)
	}
	if ex2.Patterns[0].Galloped || ex2.Patterns[1].Galloped {
		t.Fatalf("naive order galloped: %+v", ex2.Patterns)
	}
}

// TestExplainJSONShape locks the wire field names the serving layer and
// CLI rely on.
func TestExplainJSONShape(t *testing.T) {
	st, dict := seedChain(t)
	q := Query{Patterns: []Pattern{{V("p"), T(ex("madeBy")), T(ex("acme"))}}}
	var ex Explain
	if _, err := Execute(t.Context(), st, dict, q, nil, &ex); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"order", "naive_order", "plan_cost", "plan_us", "exec_us", "rows", "patterns"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("explain JSON lacks %q: %s", key, raw)
		}
	}
	pats := m["patterns"].([]any)
	p0 := pats[0].(map[string]any)
	for _, key := range []string{"pattern", "step", "est_rows", "actual_rows", "probes", "galloped"} {
		if _, ok := p0[key]; !ok {
			t.Fatalf("pattern JSON lacks %q: %s", key, raw)
		}
	}
}

// TestExplainStreamingRowsSemantics pins ExecuteFunc's Rows:
// emitted rows after dedup/offset/limit, not raw enumerations.
func TestExplainStreamingRowsSemantics(t *testing.T) {
	st, dict := seedChain(t)
	q := Query{
		Patterns: []Pattern{{V("p"), T(ex("madeBy")), T(ex("acme"))}},
		Limit:    5, HasLimit: true, Offset: 2,
	}
	var ex Explain
	n := 0
	err := ExecuteFunc(t.Context(), st, dict, q, nil, &ex, func(Binding) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || ex.Rows != 5 {
		t.Fatalf("emitted %d, ex.Rows %d, want 5", n, ex.Rows)
	}
	if ex.Patterns[0].ActualRows < 7 {
		t.Fatalf("pattern actual %d should count enumerated matches (≥ offset+limit)", ex.Patterns[0].ActualRows)
	}
}
