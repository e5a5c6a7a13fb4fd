package store

import (
	"sort"
	"testing"

	"repro/internal/rdf"
)

func sortedIDs(ids []rdf.ID) []rdf.ID {
	out := append([]rdf.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []rdf.ID) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestViewPatternProbes pins the freeze-time semantics of the view's
// pattern-indexed probes (ObjectsAppend/SubjectsAppend) — the methods
// that let rule joins and backward support checks run against a frozen
// view: post-freeze inserts are invisible, post-freeze removals still
// answer, and partitions born after the freeze are empty.
func TestViewPatternProbes(t *testing.T) {
	const (
		p1 = rdf.ID(1000)
		p2 = rdf.ID(1001)
		s1 = rdf.ID(1)
		s2 = rdf.ID(2)
		o1 = rdf.ID(11)
		o2 = rdf.ID(12)
		o3 = rdf.ID(13)
	)
	st := New()
	st.Add(rdf.T(s1, p1, o1))
	st.Add(rdf.T(s1, p1, o2))
	st.Add(rdf.T(s2, p1, o1))

	v := st.Freeze()
	defer v.Release()

	// Post-freeze churn: a removal, an insert on a frozen subject, and a
	// whole partition born after the freeze.
	st.Remove(rdf.T(s1, p1, o1))
	st.Add(rdf.T(s1, p1, o3))
	st.Add(rdf.T(s2, p2, o1))

	if got := v.ObjectsAppend(nil, p1, s1); !idsEqual(got, []rdf.ID{o1, o2}) {
		t.Fatalf("frozen objects of (s1,p1): %v, want [o1 o2]", got)
	}
	if got := st.ObjectsAppend(nil, p1, s1); !idsEqual(got, []rdf.ID{o2, o3}) {
		t.Fatalf("live objects of (s1,p1): %v, want [o2 o3]", got)
	}
	if got := v.SubjectsAppend(nil, p1, o1); !idsEqual(got, []rdf.ID{s1, s2}) {
		t.Fatalf("frozen subjects of (p1,o1): %v, want [s1 s2]", got)
	}
	if got := v.SubjectsAppend(nil, p1, o3); len(got) != 0 {
		t.Fatalf("post-freeze insert visible through the view: %v", got)
	}
	if got := v.ObjectsAppend(nil, p2, s2); len(got) != 0 {
		t.Fatalf("post-freeze partition visible through the view: %v", got)
	}
	// Append semantics: dst is extended, not replaced.
	pre := []rdf.ID{rdf.ID(999)}
	if got := v.ObjectsAppend(pre, p1, s1); len(got) != 3 || got[0] != rdf.ID(999) {
		t.Fatalf("ObjectsAppend does not extend dst: %v", got)
	}
}

// TestViewProbesDrainedSubject checks a subject fully drained after the
// freeze still answers with its frozen pairs.
func TestViewProbesDrainedSubject(t *testing.T) {
	const (
		p  = rdf.ID(2000)
		s  = rdf.ID(5)
		o1 = rdf.ID(21)
		o2 = rdf.ID(22)
	)
	st := New()
	st.Add(rdf.T(s, p, o1))
	st.Add(rdf.T(s, p, o2))
	v := st.Freeze()
	defer v.Release()
	st.Remove(rdf.T(s, p, o1))
	st.Remove(rdf.T(s, p, o2))

	if got := v.ObjectsAppend(nil, p, s); !idsEqual(got, []rdf.ID{o1, o2}) {
		t.Fatalf("frozen objects of drained subject: %v, want [o1 o2]", got)
	}
	if got := v.SubjectsAppend(nil, p, o1); !idsEqual(got, []rdf.ID{s}) {
		t.Fatalf("frozen subjects of drained pair: %v, want [s]", got)
	}
	if got := st.ObjectsAppend(nil, p, s); len(got) != 0 {
		t.Fatalf("live store still answers for drained subject: %v", got)
	}
}

// TestViewProbesMatchIteration cross-checks the probes against the
// view's (already-proven) iteration on a churned store: for every
// predicate, the pairs reconstructed via ObjectsAppend over all frozen
// subjects must equal ForEachWithPredicate's output.
func TestViewProbesMatchIteration(t *testing.T) {
	st := New()
	var preds []rdf.ID
	for p := rdf.ID(0); p < 5; p++ {
		preds = append(preds, rdf.ID(3000)+p)
	}
	tr := func(i, j, k int) rdf.Triple {
		return rdf.T(rdf.ID(100+i), preds[j], rdf.ID(200+k))
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 5; j++ {
			st.Add(tr(i, j, (i+j)%6))
		}
	}
	v := st.Freeze()
	defer v.Release()
	// Churn half of everything.
	for i := 0; i < 8; i += 2 {
		for j := 0; j < 5; j++ {
			st.Remove(tr(i, j, (i+j)%6))
			st.Add(tr(i, j, 7))
		}
	}
	for _, p := range preds {
		want := map[[2]rdf.ID]bool{}
		v.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
			want[[2]rdf.ID{s, o}] = true
			return true
		})
		got := map[[2]rdf.ID]bool{}
		subjects := map[rdf.ID]bool{}
		for pair := range want {
			subjects[pair[0]] = true
		}
		for s := range subjects {
			for _, o := range v.ObjectsAppend(nil, p, s) {
				got[[2]rdf.ID{s, o}] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("predicate %d: probes found %d pairs, iteration %d", p, len(got), len(want))
		}
		for pair := range want {
			if !got[pair] {
				t.Fatalf("predicate %d: probes missing %v", p, pair)
			}
			// And the symmetric index agrees.
			found := false
			for _, s := range v.SubjectsAppend(nil, p, pair[1]) {
				if s == pair[0] {
					found = true
				}
			}
			if !found {
				t.Fatalf("predicate %d: SubjectsAppend missing %v", p, pair)
			}
		}
	}
}
