package store

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func tr(s, p, o uint64) rdf.Triple { return rdf.T(rdf.ID(s), rdf.ID(p), rdf.ID(o)) }

func TestAddAndContains(t *testing.T) {
	st := New()
	a := tr(1, 2, 3)
	if st.Contains(a) {
		t.Fatal("empty store contains a triple")
	}
	if !st.Add(a) {
		t.Fatal("first Add returned false")
	}
	if st.Add(a) {
		t.Fatal("duplicate Add returned true")
	}
	if !st.Contains(a) {
		t.Fatal("Contains false after Add")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
}

func TestAddBatchReturnsOnlyFresh(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	fresh := st.AddBatch([]rdf.Triple{tr(1, 2, 3), tr(4, 2, 5), tr(4, 2, 5), tr(6, 7, 8)})
	want := []rdf.Triple{tr(4, 2, 5), tr(6, 7, 8)}
	if len(fresh) != len(want) {
		t.Fatalf("fresh = %v, want %v", fresh, want)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("fresh = %v, want %v", fresh, want)
		}
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
}

func TestObjectsAndSubjects(t *testing.T) {
	st := New()
	st.Add(tr(1, 9, 10))
	st.Add(tr(1, 9, 11))
	st.Add(tr(2, 9, 10))
	st.Add(tr(1, 8, 12))

	objs := st.ObjectsAppend(nil, 9, 1)
	sortIDs(objs)
	if len(objs) != 2 || objs[0] != 10 || objs[1] != 11 {
		t.Fatalf("Objects(9,1) = %v", objs)
	}
	subs := st.SubjectsAppend(nil, 9, 10)
	sortIDs(subs)
	if len(subs) != 2 || subs[0] != 1 || subs[1] != 2 {
		t.Fatalf("Subjects(9,10) = %v", subs)
	}
	if st.ObjectsAppend(nil, 9, 99) != nil {
		t.Fatal("Objects of absent subject should be nil")
	}
	if st.SubjectsAppend(nil, 99, 10) != nil {
		t.Fatal("Subjects of absent predicate should be nil")
	}
}

func TestPredicateLenAndPredicates(t *testing.T) {
	st := New()
	st.Add(tr(1, 5, 2))
	st.Add(tr(1, 5, 3))
	st.Add(tr(1, 7, 2))
	if st.PredicateLen(5) != 2 {
		t.Fatalf("PredicateLen(5) = %d", st.PredicateLen(5))
	}
	if st.PredicateLen(6) != 0 {
		t.Fatalf("PredicateLen(6) = %d", st.PredicateLen(6))
	}
	preds := st.Predicates()
	if len(preds) != 2 || preds[0] != 5 || preds[1] != 7 {
		t.Fatalf("Predicates() = %v", preds)
	}
}

func TestForEachWithPredicateEarlyStop(t *testing.T) {
	st := New()
	for i := uint64(0); i < 10; i++ {
		st.Add(tr(i, 5, i+100))
	}
	count := 0
	st.ForEachWithPredicate(5, func(s, o rdf.ID) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d pairs, want 3", count)
	}
	// Absent predicate: callback never invoked.
	st.ForEachWithPredicate(42, func(s, o rdf.ID) bool {
		t.Fatal("callback invoked for absent predicate")
		return false
	})
}

func TestForEachVisitsEverything(t *testing.T) {
	st := New()
	want := map[rdf.Triple]bool{}
	for i := uint64(0); i < 20; i++ {
		x := tr(i%5, i%3+1, i)
		st.Add(x)
		want[x] = true
	}
	got := map[rdf.Triple]bool{}
	st.ForEach(func(t rdf.Triple) bool {
		got[t] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("ForEach missed %v", k)
		}
	}
}

func TestMatchPatternMatrix(t *testing.T) {
	st := New()
	data := []rdf.Triple{tr(1, 5, 2), tr(1, 5, 3), tr(2, 5, 2), tr(1, 7, 2), tr(3, 8, 4)}
	for _, d := range data {
		st.Add(d)
	}
	cases := []struct {
		pattern rdf.Triple
		wantN   int
	}{
		{tr(0, 0, 0), 5}, // * * *
		{tr(1, 0, 0), 3}, // s * *
		{tr(0, 5, 0), 3}, // * p *
		{tr(0, 0, 2), 3}, // * * o
		{tr(1, 5, 0), 2}, // s p *
		{tr(0, 5, 2), 2}, // * p o
		{tr(1, 0, 2), 2}, // s * o
		{tr(1, 5, 2), 1}, // s p o present
		{tr(9, 5, 2), 0}, // absent subject
		{tr(1, 9, 2), 0}, // absent predicate
		{tr(1, 5, 9), 0}, // absent object
	}
	for i, c := range cases {
		got := st.Match(c.pattern)
		if len(got) != c.wantN {
			t.Errorf("case %d: Match(%v) returned %d triples (%v), want %d",
				i, c.pattern, len(got), got, c.wantN)
		}
		for _, m := range got {
			if !m.Matches(c.pattern) {
				t.Errorf("case %d: result %v does not match pattern %v", i, m, c.pattern)
			}
			if !st.Contains(m) {
				t.Errorf("case %d: result %v not in store", i, m)
			}
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	snap := st.Snapshot()
	if len(snap) != 1 || snap[0] != tr(1, 2, 3) {
		t.Fatalf("Snapshot = %v", snap)
	}
	st.Add(tr(4, 5, 6))
	if len(snap) != 1 {
		t.Fatal("snapshot aliased live store")
	}
}

func TestStats(t *testing.T) {
	st := New()
	st.Add(tr(1, 5, 2))
	st.Add(tr(1, 5, 3))
	st.Add(tr(1, 7, 2))
	s := st.Stats()
	if s.Triples != 3 || s.Predicates != 2 || s.MaxPartition != 2 {
		t.Fatalf("Stats = %+v", s)
	}
}

// Property: Len equals the number of distinct triples inserted; Contains
// holds exactly for inserted triples; Snapshot has no duplicates.
func TestStoreInvariantsProperty(t *testing.T) {
	gen := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := New()
		ref := make(map[rdf.Triple]bool)
		for i := 0; i < int(n)*4; i++ {
			x := tr(uint64(rng.Intn(12)), uint64(rng.Intn(4)+1), uint64(rng.Intn(12)))
			fresh := st.Add(x)
			if fresh == ref[x] {
				return false // freshness must equal prior absence
			}
			ref[x] = true
		}
		if st.Len() != len(ref) {
			return false
		}
		snap := st.Snapshot()
		if len(snap) != len(ref) {
			return false
		}
		seen := make(map[rdf.Triple]bool, len(snap))
		for _, x := range snap {
			if seen[x] || !ref[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAddersAndReaders(t *testing.T) {
	st := New()
	const writers = 4
	const readers = 4
	const perW = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				st.Add(tr(uint64(w*perW+i), uint64(i%7+1), uint64(i)))
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Len()
				st.Contains(tr(1, 1, 1))
				st.ObjectsAppend(nil, 3, 5)
				st.ForEachWithPredicate(2, func(s, o rdf.ID) bool { return true })
			}
		}()
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		for i := 0; i < writers; i++ {
		}
		close(done)
	}()
	wgWait := make(chan struct{})
	go func() { wg.Wait(); close(wgWait) }()
	// Writers will finish on their own; signal readers once Len stabilises.
	for st.Len() < writers*perW {
	}
	close(stop)
	<-wgWait
	<-done
	if st.Len() != writers*perW {
		t.Fatalf("Len = %d, want %d", st.Len(), writers*perW)
	}
}

func sortIDs(ids []rdf.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
