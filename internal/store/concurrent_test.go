package store

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/rdf"
)

func TestAddBatchSemantics(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	fresh := st.AddBatch([]rdf.Triple{
		tr(1, 2, 3),   // duplicate of stored
		tr(4, 2, 5),   // fresh
		tr(4, 2, 5),   // duplicate within batch
		tr(6, 7, 8),   // fresh, second predicate
		tr(9, 10, 11), // fresh, third predicate
	})
	// The fresh triples once each, in any order: AddBatch returns them
	// grouped by predicate, not in input order.
	sameTriples(t, fresh, []rdf.Triple{tr(4, 2, 5), tr(6, 7, 8), tr(9, 10, 11)}, "fresh")
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want 4", st.Len())
	}
}

func TestAddBatchEmptyAndSingle(t *testing.T) {
	st := New()
	if fresh := st.AddBatch(nil); fresh != nil {
		t.Fatalf("AddBatch(nil) = %v, want nil", fresh)
	}
	if fresh := st.AddBatch([]rdf.Triple{tr(1, 2, 3)}); len(fresh) != 1 || fresh[0] != tr(1, 2, 3) {
		t.Fatalf("AddBatch(single) = %v", fresh)
	}
	if fresh := st.AddBatch([]rdf.Triple{tr(1, 2, 3)}); fresh != nil {
		t.Fatalf("AddBatch(duplicate single) = %v, want nil", fresh)
	}
}

func TestContainsBatch(t *testing.T) {
	st := New()
	st.AddBatch([]rdf.Triple{tr(1, 2, 3), tr(4, 5, 6)})
	got := st.ContainsBatch([]rdf.Triple{tr(1, 2, 3), tr(9, 9, 9), tr(4, 5, 6), tr(1, 2, 4)})
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ContainsBatch[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if st.ContainsBatch(nil) != nil {
		t.Fatal("ContainsBatch(nil) != nil")
	}
}

func TestAppendReaders(t *testing.T) {
	st := New()
	st.Add(tr(1, 9, 10))
	st.Add(tr(1, 9, 11))
	st.Add(tr(2, 9, 10))

	buf := make([]rdf.ID, 0, 8)
	buf = st.ObjectsAppend(buf, 9, 1)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	if len(buf) != 2 || buf[0] != 10 || buf[1] != 11 {
		t.Fatalf("ObjectsAppend = %v, want [10 11]", buf)
	}
	// Reuse: appending into the same buffer extends it.
	buf = st.SubjectsAppend(buf, 9, 10)
	if len(buf) != 4 {
		t.Fatalf("SubjectsAppend reuse len = %d, want 4", len(buf))
	}
	subs := append([]rdf.ID(nil), buf[2:]...)
	sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
	if subs[0] != 1 || subs[1] != 2 {
		t.Fatalf("SubjectsAppend = %v, want [1 2]", subs)
	}
	// Missing predicate/subject leaves dst untouched.
	if got := st.ObjectsAppend(nil, 99, 1); got != nil {
		t.Fatalf("ObjectsAppend missing predicate = %v, want nil", got)
	}
}

// TestConcurrentShardedStoreStress hammers the store from many
// goroutines mixing Add, AddBatch, Remove, Contains, ContainsBatch,
// Match, Objects/Subjects and full iteration. Run with -race; the test
// asserts only invariants that hold under any interleaving.
func TestConcurrentShardedStoreStress(t *testing.T) {
	st := New()
	const (
		goroutines = 8
		rounds     = 300
		preds      = 17 // writers collide on shared predicates
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				p := rdf.ID(rng.Intn(preds) + 1)
				s := rdf.ID(rng.Intn(50) + 1)
				o := rdf.ID(rng.Intn(50) + 1)
				switch rng.Intn(8) {
				case 0:
					st.Add(rdf.T(s, p, o))
				case 1:
					batch := make([]rdf.Triple, 0, 8)
					for j := 0; j < 8; j++ {
						batch = append(batch, rdf.T(rdf.ID(rng.Intn(50)+1), rdf.ID(rng.Intn(preds)+1), rdf.ID(rng.Intn(50)+1)))
					}
					st.AddBatch(batch)
				case 2:
					st.Remove(rdf.T(s, p, o))
				case 3:
					st.Contains(rdf.T(s, p, o))
					st.ContainsBatch([]rdf.Triple{rdf.T(s, p, o), rdf.T(o, p, s)})
				case 4:
					st.Match(rdf.T(rdf.Any, p, rdf.Any))
					st.Match(rdf.T(s, rdf.Any, rdf.Any))
				case 5:
					st.ObjectsAppend(nil, p, s)
					st.SubjectsAppend(nil, p, o)
					st.PredicateLen(p)
				case 6:
					// Iteration callbacks may re-enter the store — the
					// copy-then-call protocol makes this deadlock-free.
					st.ForEachWithPredicate(p, func(s2, o2 rdf.ID) bool {
						st.Contains(rdf.T(s2, p, o2))
						return true
					})
				case 7:
					st.Len()
					st.Stats()
					st.Predicates()
				}
			}
		}(int64(g))
	}
	wg.Wait()

	// Invariants after quiescence: size counter matches iteration, and
	// both index directions agree.
	n := 0
	st.ForEach(func(tr rdf.Triple) bool {
		n++
		if !st.Contains(tr) {
			t.Errorf("ForEach yielded %v but Contains is false", tr)
			return false
		}
		return true
	})
	if n != st.Len() {
		t.Fatalf("ForEach visited %d triples, Len() = %d", n, st.Len())
	}
	if got := len(st.Snapshot()); got != n {
		t.Fatalf("Snapshot has %d triples, ForEach visited %d", got, n)
	}
	for _, p := range st.Predicates() {
		so, os := 0, 0
		st.ForEachWithPredicate(p, func(s, o rdf.ID) bool { so++; return true })
		for _, tr := range st.Match(rdf.T(rdf.Any, p, rdf.Any)) {
			found := false
			for _, s := range st.SubjectsAppend(nil, p, tr.O) {
				if s == tr.S {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("os index missing subject %d for %v", tr.S, tr)
			}
			os++
		}
		if so != os || so != st.PredicateLen(p) {
			t.Fatalf("predicate %d: so=%d os=%d PredicateLen=%d", p, so, os, st.PredicateLen(p))
		}
	}
}

// TestConcurrentAddBatchDisjoint checks that parallel batch ingestion of
// disjoint slices lands exactly once each, with no lost or phantom
// updates across predicates.
func TestConcurrentAddBatchDisjoint(t *testing.T) {
	st := New()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]rdf.Triple, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				// Unique triple per (worker, i); predicates deliberately
				// shared across workers to contend on partitions.
				batch = append(batch, rdf.T(rdf.ID(w*perWorker+i+1), rdf.ID(i%13+1), rdf.ID(w+1)))
			}
			if fresh := st.AddBatch(batch); len(fresh) != perWorker {
				t.Errorf("worker %d: fresh = %d, want %d", w, len(fresh), perWorker)
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", st.Len(), workers*perWorker)
	}
}

func BenchmarkAddBatchParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const batchLen = 256
			st := New()
			b.SetParallelism(workers)
			var ctr int64
			var mu sync.Mutex
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					mu.Lock()
					base := ctr
					ctr += batchLen
					mu.Unlock()
					batch := make([]rdf.Triple, batchLen)
					for i := range batch {
						n := base + int64(i)
						batch[i] = rdf.T(rdf.ID(n%100_000+1), rdf.ID(n%31+1), rdf.ID(n%10_000+1))
					}
					st.AddBatch(batch)
				}
			})
		})
	}
}
