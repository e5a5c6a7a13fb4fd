package query

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/store"
)

// bruteForce evaluates a query by enumerating every assignment of store
// terms to variables and checking all patterns — the trivially-correct
// oracle for the backtracking join.
func bruteForce(st *store.Store, dict *rdf.Dictionary, q Query) map[string]bool {
	vars := q.Vars()
	proj := q.Select
	if len(proj) == 0 {
		proj = vars
	}
	// Candidate IDs: every ID appearing anywhere in the store.
	idSet := map[rdf.ID]bool{}
	st.ForEach(func(t rdf.Triple) bool {
		idSet[t.S] = true
		idSet[t.P] = true
		idSet[t.O] = true
		return true
	})
	var ids []rdf.ID
	for id := range idSet {
		ids = append(ids, id)
	}
	results := map[string]bool{}
	assignment := map[string]rdf.ID{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for _, p := range q.Patterns {
				resolve := func(n Node) rdf.ID {
					if n.IsVar {
						return assignment[n.Var]
					}
					id, _ := dict.Lookup(n.Term)
					return id
				}
				if !st.Contains(rdf.T(resolve(p.S), resolve(p.P), resolve(p.O))) {
					return
				}
			}
			key := ""
			for _, v := range proj {
				term, _ := dict.Term(assignment[v])
				key += term.String() + "|"
			}
			results[key] = true
			return
		}
		for _, id := range ids {
			assignment[vars[i]] = id
			rec(i + 1)
		}
	}
	rec(0)
	return results
}

// Property: the backtracking join returns exactly the brute-force
// solution set for random tiny stores and random 1-3 pattern queries, in
// all four {planned, as-written} order x {one run per Add, compacted
// runs} layout cells.
func TestExecuteMatchesBruteForceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dict := rdf.NewDictionary()
		mapStore, runStore := store.New(), store.New()
		mapStore.SetAutoCompact(false)
		term := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://e/t%d", i)) }
		nTerms := rng.Intn(5) + 3
		for i := 0; i < rng.Intn(12)+4; i++ {
			tr := dict.EncodeStatement(rdf.NewStatement(
				term(rng.Intn(nTerms)), term(rng.Intn(3)), term(rng.Intn(nTerms))))
			mapStore.Add(tr)
			runStore.Add(tr)
		}
		runStore.Compact()
		if ss := runStore.Stats(); ss.Runs == 0 || ss.OverlayPairs != 0 {
			t.Logf("seed %d: compaction left no runs or unmerged pairs: %+v", seed, ss)
			return false
		}
		varNames := []string{"x", "y", "z"}
		randNode := func() Node {
			if rng.Intn(2) == 0 {
				return V(varNames[rng.Intn(len(varNames))])
			}
			return T(term(rng.Intn(nTerms)))
		}
		var q Query
		for i := 0; i < rng.Intn(3)+1; i++ {
			q.Patterns = append(q.Patterns, Pattern{randNode(), randNode(), randNode()})
		}
		want := bruteForce(mapStore, dict, q)
		proj := q.Select
		if len(proj) == 0 {
			proj = q.Vars()
		}
		naive := q
		naive.NaiveOrder = true
		for _, cell := range []struct {
			name string
			st   *store.Store
			q    Query
		}{
			{"planned/map", mapStore, q},
			{"naive/map", mapStore, naive},
			{"planned/runs", runStore, q},
			{"naive/runs", runStore, naive},
		} {
			got, err := Execute(t.Context(), cell.st, dict, cell.q, nil, nil)
			if err != nil {
				return false
			}
			if len(got) != len(want) {
				t.Logf("seed %d %s: got %d solutions, brute force %d\nquery: %v",
					seed, cell.name, len(got), len(want), q.Patterns)
				return false
			}
			for _, b := range got {
				key := ""
				for _, v := range proj {
					key += b[v].String() + "|"
				}
				if !want[key] {
					t.Logf("seed %d %s: spurious solution %v", seed, cell.name, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
