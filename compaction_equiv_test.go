package slider

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
)

// materialisedClosure collects the reasoner's materialised closure as a set of
// rendered statements.
func materialisedClosure(r *Reasoner) map[string]bool {
	out := map[string]bool{}
	r.Statements(func(st Statement) bool {
		out[st.S.String()+" "+st.P.String()+" "+st.O.String()] = true
		return true
	})
	return out
}

// TestClosureInvariantUnderCompaction cross-checks the full pipeline —
// inference, retraction and queries — between a reasoner whose store
// merges its runs in the background and one whose compactor is off, so
// its per-batch runs stay apart until the run bound. The same ingest/retract schedule must yield identical
// closures and identical query answers regardless of the physical
// layout, including after forcing full compaction mid-stream.
func TestClosureInvariantUnderCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	newPair := func() (*Reasoner, *Reasoner) {
		lsm := New(RhoDF)
		flat := New(RhoDF)
		flat.Store().SetAutoCompact(false)
		return lsm, flat
	}
	lsm, flat := newPair()
	defer lsm.Close(context.Background())
	defer flat.Close(context.Background())

	cls := func(i int) Term { return IRI(fmt.Sprintf("http://ex.test/C%d", i)) }
	ind := func(i int) Term { return IRI(fmt.Sprintf("http://ex.test/i%d", i)) }
	schema := []Statement{
		NewStatement(cls(0), IRI(SubClassOf), cls(1)),
		NewStatement(cls(1), IRI(SubClassOf), cls(2)),
		NewStatement(cls(2), IRI(SubClassOf), cls(3)),
		NewStatement(IRI("http://ex.test/knows"), IRI(Domain), cls(0)),
		NewStatement(IRI("http://ex.test/knows"), IRI(Range), cls(1)),
	}
	both := func(sts ...Statement) {
		if _, err := lsm.AddBatch(sts); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.AddBatch(sts); err != nil {
			t.Fatal(err)
		}
	}
	both(schema...)

	var typed []Statement
	for round := 0; round < 5; round++ {
		var batch []Statement
		for i := 0; i < 200; i++ {
			n := rng.Intn(500)
			if rng.Intn(3) == 0 {
				batch = append(batch, NewStatement(ind(n), IRI(Type), cls(rng.Intn(3))))
			} else {
				batch = append(batch, NewStatement(ind(n), IRI("http://ex.test/knows"), ind(rng.Intn(500))))
			}
		}
		typed = append(typed, batch...)
		both(batch...)
		if round == 2 {
			// Mid-stream full compaction on one side only: physically
			// divergent, logically invisible.
			lsm.Store().Compact()
		}
		// Retract a few of the statements asserted so far, same on both.
		victims := []Statement{typed[rng.Intn(len(typed))], typed[rng.Intn(len(typed))]}
		if _, err := lsm.Retract(context.Background(), victims...); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.Retract(context.Background(), victims...); err != nil {
			t.Fatal(err)
		}
	}
	if err := lsm.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := flat.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	a, b := materialisedClosure(lsm), materialisedClosure(flat)
	if len(a) != len(b) {
		t.Fatalf("closure sizes diverge: runs=%d map=%d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("closure diverges on %s", k)
		}
	}

	// Query answers agree too — planned+galloping over runs vs the same
	// planner over the unmerged runs, and both against the naive order.
	q := `SELECT ?x ?y WHERE { ?x <http://ex.test/knows> ?y . ?x <` + Type + `> <http://ex.test/C0> . ?y <` + Type + `> <http://ex.test/C1> . }`
	ra, err := lsm.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := flat.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("query answers diverge: runs=%d rows, map=%d rows", len(ra), len(rb))
	}
	if pq, err := query.ParseSelect(q); err == nil {
		pq.NaiveOrder = true
		rn, err := lsm.SelectQuery(pq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rn) {
			t.Fatalf("naive order diverges from planned: %d vs %d rows", len(rn), len(ra))
		}
	} else {
		t.Fatal(err)
	}

	// The compacting side really did compact.
	if ss := lsm.StoreStats(); ss.Compaction.Merges == 0 {
		t.Fatalf("compaction never ran on the run-backed side: %+v", ss)
	}
}
