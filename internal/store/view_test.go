package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// viewTriples collects a view's contents via ForEach.
func viewTriples(v *View) []rdf.Triple {
	var out []rdf.Triple
	v.ForEach(func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.P != b.P {
			return a.P < b.P
		}
		if a.S != b.S {
			return a.S < b.S
		}
		return a.O < b.O
	})
}

func sameTriples(t *testing.T, got, want []rdf.Triple, msg string) {
	t.Helper()
	sortTriples(got)
	sortTriples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d triples %v, want %d %v", msg, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: triple %d = %v, want %v", msg, i, got[i], want[i])
		}
	}
}

func TestViewIsStableUnderMutation(t *testing.T) {
	st := New()
	frozen := []rdf.Triple{tr(1, 2, 3), tr(4, 2, 5), tr(6, 7, 8), tr(9, 10, 11)}
	for _, x := range frozen {
		st.Add(x)
	}
	v := st.Freeze()
	defer v.Release()

	if v.Len() != len(frozen) {
		t.Fatalf("view Len = %d, want %d", v.Len(), len(frozen))
	}
	sameTriples(t, viewTriples(v), frozen, "freshly frozen view")

	// Mutate every which way: new triple in an existing partition, a new
	// partition, removal of a frozen triple, removal of a post-freeze
	// triple, re-add of a removed frozen triple, drain a partition.
	st.Add(tr(12, 2, 13))    // new pair, existing partition
	st.Add(tr(14, 15, 16))   // new partition born after the freeze
	st.Remove(tr(1, 2, 3))   // frozen pair removed
	st.Add(tr(17, 2, 18))    // another post-freeze pair...
	st.Remove(tr(17, 2, 18)) // ...removed again (net zero)
	st.Remove(tr(6, 7, 8))   // drains predicate 7 entirely
	st.Add(tr(1, 2, 3))      // removed frozen pair comes back (net zero)
	st.Remove(tr(9, 10, 11)) // frozen pair removed, stays gone

	sameTriples(t, viewTriples(v), frozen, "view after heavy mutation")
	if v.Len() != len(frozen) {
		t.Fatalf("view Len after mutation = %d, want %d", v.Len(), len(frozen))
	}

	// Per-predicate accessors agree with the frozen state.
	if n := v.PredicateLen(2); n != 2 {
		t.Fatalf("PredicateLen(2) = %d, want 2", n)
	}
	if n := v.PredicateLen(7); n != 1 {
		t.Fatalf("PredicateLen(7) = %d, want 1 (drained after freeze)", n)
	}
	if n := v.PredicateLen(15); n != 0 {
		t.Fatalf("PredicateLen(15) = %d, want 0 (born after freeze)", n)
	}
	preds := v.Predicates()
	wantPreds := []rdf.ID{2, 7, 10}
	if len(preds) != len(wantPreds) {
		t.Fatalf("Predicates = %v, want %v", preds, wantPreds)
	}
	for i := range wantPreds {
		if preds[i] != wantPreds[i] {
			t.Fatalf("Predicates = %v, want %v", preds, wantPreds)
		}
	}

	// The live store meanwhile reflects the mutations.
	if st.Contains(tr(9, 10, 11)) {
		t.Fatal("removed triple still in live store")
	}
	if !st.Contains(tr(12, 2, 13)) {
		t.Fatal("post-freeze triple missing from live store")
	}
}

func TestViewReleaseRestoresNormalOperation(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	st.Add(tr(4, 5, 6))
	v := st.Freeze()
	st.Remove(tr(4, 5, 6)) // drains predicate 5; pruning deferred
	v.Release()
	v.Release() // idempotent

	// The drained predicate is absent from the root.
	if got := st.Predicates(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Predicates after Release = %v, want [2]", got)
	}

	// A second freeze starts clean: the first view must not leak in.
	st.Add(tr(7, 2, 8))
	v2 := st.Freeze()
	defer v2.Release()
	sameTriples(t, viewTriples(v2), []rdf.Triple{tr(1, 2, 3), tr(7, 2, 8)}, "second view")
}

func TestViewEmptyStore(t *testing.T) {
	st := New()
	v := st.Freeze()
	defer v.Release()
	if v.Len() != 0 || len(v.Predicates()) != 0 || len(viewTriples(v)) != 0 {
		t.Fatalf("view of empty store not empty: len=%d preds=%v", v.Len(), v.Predicates())
	}
	st.Add(tr(1, 2, 3))
	if len(viewTriples(v)) != 0 {
		t.Fatal("post-freeze add leaked into the view of an empty store")
	}
}

// TestViewConcurrentMutation hammers the store with concurrent adders
// and removers while a view is repeatedly drained, checking under -race
// that (a) iteration is safe and (b) the view's contents never change.
func TestViewConcurrentMutation(t *testing.T) {
	st := New()
	var frozen []rdf.Triple
	for i := 0; i < 2000; i++ {
		x := tr(uint64(i%97), uint64(i%5), uint64(i))
		if st.Add(x) {
			frozen = append(frozen, x)
		}
	}
	v := st.Freeze()
	defer v.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				x := tr(uint64(rng.Intn(200)), uint64(rng.Intn(8)), uint64(rng.Intn(4000)))
				if rng.Intn(3) == 0 {
					st.Remove(x)
				} else {
					st.Add(x)
				}
			}
		}(int64(w))
	}
	for i := 0; i < 20; i++ {
		sameTriples(t, viewTriples(v), frozen, "view under concurrent mutation")
	}
	close(stop)
	wg.Wait()
	sameTriples(t, viewTriples(v), frozen, "view after mutators stopped")
}

// TestConcurrentViews pins the multi-view contract the serving layer
// relies on: several views frozen at different times coexist, each
// answering with its own freeze-time contents, and releasing one leaves
// the others intact.
func TestConcurrentViews(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	v1 := st.Freeze()
	st.Add(tr(4, 2, 5))
	v2 := st.Freeze()
	st.Remove(tr(1, 2, 3))
	st.Add(tr(6, 7, 8)) // new partition: invisible to both views
	v3 := st.Freeze()

	sameTriples(t, viewTriples(v1), []rdf.Triple{tr(1, 2, 3)}, "v1")
	sameTriples(t, viewTriples(v2), []rdf.Triple{tr(1, 2, 3), tr(4, 2, 5)}, "v2")
	sameTriples(t, viewTriples(v3), []rdf.Triple{tr(4, 2, 5), tr(6, 7, 8)}, "v3")

	// Releasing the middle view must not disturb the outer two.
	v2.Release()
	st.Add(tr(9, 2, 10))
	sameTriples(t, viewTriples(v1), []rdf.Triple{tr(1, 2, 3)}, "v1 after v2 release")
	sameTriples(t, viewTriples(v3), []rdf.Triple{tr(4, 2, 5), tr(6, 7, 8)}, "v3 after v2 release")
	if !v3.Contains(tr(4, 2, 5)) || v3.Contains(tr(1, 2, 3)) || v3.Contains(tr(9, 2, 10)) {
		t.Fatal("v3.Contains disagrees with freeze-time state")
	}
	v1.Release()
	v3.Release()

	// With every view gone the store returns to normal operation:
	// drained partitions prune and live data is intact.
	want := []rdf.Triple{tr(4, 2, 5), tr(6, 7, 8), tr(9, 2, 10)}
	sameTriples(t, st.Snapshot(), want, "live store after all releases")
}

// TestViewMatchEach checks frozen pattern matching in every ground/wild
// combination against a mutated-away store state.
func TestViewMatchEach(t *testing.T) {
	st := New()
	frozen := []rdf.Triple{tr(1, 2, 3), tr(1, 2, 4), tr(5, 2, 3), tr(6, 7, 3)}
	for _, x := range frozen {
		st.Add(x)
	}
	v := st.Freeze()
	defer v.Release()
	st.Add(tr(1, 2, 9))    // post-freeze object of subject 1
	st.Remove(tr(5, 2, 3)) // frozen pair removed
	st.Add(tr(8, 2, 3))    // post-freeze subject of object 3
	st.Remove(tr(6, 7, 3)) // drains predicate 7

	collect := func(pat rdf.Triple) []rdf.Triple {
		var out []rdf.Triple
		v.MatchEach(pat, func(t rdf.Triple) bool { out = append(out, t); return true })
		return out
	}
	sameTriples(t, collect(rdf.T(rdf.Any, rdf.Any, rdf.Any)), frozen, "full wildcard")
	sameTriples(t, collect(rdf.T(1, 2, rdf.Any)), []rdf.Triple{tr(1, 2, 3), tr(1, 2, 4)}, "ground s")
	sameTriples(t, collect(rdf.T(rdf.Any, 2, 3)), []rdf.Triple{tr(1, 2, 3), tr(5, 2, 3)}, "ground o")
	sameTriples(t, collect(rdf.T(5, 2, 3)), []rdf.Triple{tr(5, 2, 3)}, "fully ground, removed after freeze")
	sameTriples(t, collect(rdf.T(rdf.Any, 7, rdf.Any)), []rdf.Triple{tr(6, 7, 3)}, "drained predicate")
	if got := collect(rdf.T(1, 2, 9)); got != nil {
		t.Fatalf("post-freeze pair matched: %v", got)
	}
	if got := collect(rdf.T(8, 2, rdf.Any)); got != nil {
		t.Fatalf("post-freeze subject matched: %v", got)
	}
}

// TestMarkerRunsCancelAndResurrect pins the partition's run-list shape
// under removal: a removal appends a marker run and the pair reads as
// gone, a re-add appends an add run and it reads as live again, a
// drained subject leaves no key behind after Compact, and never-seen
// subjects below, between and above the run's keys read as absent.
func TestMarkerRunsCancelAndResurrect(t *testing.T) {
	const p = 7
	st := New()
	st.SetAutoCompact(false)
	for s := uint64(100); s < 200; s += 2 { // run subjects, with gaps
		st.AddBatch([]rdf.Triple{tr(s, p, 1), tr(s, p, 2)})
	}
	st.Compact()
	shape := func(msg string, runs, markers int) {
		t.Helper()
		got, dels := 0, 0
		for _, r := range st.root().list(p).get() {
			got++
			if r.del {
				dels++
			}
		}
		if got != runs || dels != markers {
			t.Fatalf("%s: %d runs (%d markers), want %d (%d)", msg, got, dels, runs, markers)
		}
	}
	shape("after Compact", 1, 0)

	x := tr(150, p, 1)
	if !st.Remove(x) || st.Contains(x) || st.Remove(x) {
		t.Fatal("run pair not removed by a marker")
	}
	shape("removed", 2, 1)
	if !st.Add(x) || !st.Contains(x) {
		t.Fatal("removed run pair did not come back on Add")
	}
	shape("re-added", 3, 1)
	if st.Add(tr(150, p, 2)) || st.Add(x) {
		t.Fatal("live run pair re-added as fresh")
	}
	if got := st.ObjectsAppend(nil, p, 150); !slices.Equal(got, []rdf.ID{1, 2}) {
		t.Fatalf("Objects(150) = %v, want [1 2]", got)
	}
	st.RemoveAll([]rdf.Triple{tr(152, p, 1), tr(152, p, 2), tr(152, p, 2)})
	shape("subject drained by one marker run", 4, 2)
	st.Compact()
	shape("markers cancelled", 1, 0)
	if n, subjects, objects := st.PredicateStats(p); n != 98 || subjects != 49 || objects != 2 {
		t.Fatalf("PredicateStats = %d, %d, %d after compaction; want 98, 49, 2", n, subjects, objects)
	}
	for _, s := range []uint64{50, 151, 152, 500} { // below, in a gap of, drained from, above the run
		if st.Contains(tr(s, p, 1)) || st.Remove(tr(s, p, 1)) {
			t.Fatalf("absent subject %d reported present", s)
		}
	}
	if got := st.PredicateLen(p); got != 98 {
		t.Fatalf("PredicateLen = %d, want 98", got)
	}
}

// TestViewWalkFreezeTimeUnderChurn is the oracle for the view's walk.
// A frozen partition with pairs in several add runs, marker runs and
// one-pair runs is walked while the callback itself adds, removes,
// merges due windows, and pushes pairs through remove → Compact →
// re-add: the marker cancels and the pair comes back in a new run. The
// lowest subjects form a run that is two-thirds removed. A second
// fixture is one pair-form run with a subject of three key entries.
// Every freeze-time pair must be visited exactly once, and nothing else.
func TestViewWalkFreezeTimeUnderChurn(t *testing.T) {
	const p = 5
	for _, auto := range []bool{false, true} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st := New()
			st.SetAutoCompact(auto)
			randPair := func(lo, hi int) rdf.Triple {
				return tr(uint64(lo+rng.Intn(hi-lo)), p, uint64(1+rng.Intn(8)))
			}
			var batch []rdf.Triple
			for s := uint64(1); s <= 3000; s++ {
				batch = append(batch, tr(s, p, 1))
			}
			st.AddBatch(batch)
			for s := uint64(1); s <= 3000; s++ {
				if s%3 != 0 {
					st.Remove(tr(s, p, 1))
				}
			}
			for r := 0; r < 2; r++ {
				batch = batch[:0]
				for i := 0; i < 1800; i++ {
					batch = append(batch, randPair(5000, 7000))
				}
				st.AddBatch(batch)
			}
			// Single-pair subjects: once their one pair is cancelled and
			// re-added, a one-pair run is the subject's only home.
			batch = batch[:0]
			for s := uint64(9000); s < 9400; s++ {
				batch = append(batch, tr(s, p, 1))
			}
			st.AddBatch(batch)
			for i := 0; i < 300; i++ {
				st.Remove(randPair(5000, 7000))
			}
			for i := 0; i < 600; i++ {
				st.Add(randPair(5000, 10000))
			}
			walkFrozenUnderChurn(t, st, p, rng, fmt.Sprintf("auto=%v seed %d", auto, seed), 4000)
		}
	}

	// Subject walkChunk-1 holds key entries walkChunk-2 to walkChunk of
	// a pair-form run; a one-pair run keeps the walk off a single run.
	withForm(t, &pairForm)
	for seed := int64(1); seed <= 10; seed++ {
		st := New()
		st.SetAutoCompact(false)
		for s := uint64(1); s < 2*walkChunk; s++ {
			st.Add(tr(s, p, 1))
			if s == walkChunk-1 {
				st.Add(tr(s, p, 2))
				st.Add(tr(s, p, 3))
			}
		}
		st.Compact()
		st.Add(tr(9000, p, 1))
		walkFrozenUnderChurn(t, st, p, rand.New(rand.NewSource(seed)), fmt.Sprintf("pair form seed %d", seed), 2*walkChunk)
	}
}

// walkChunk sizes the walk fixtures: a partition of a few thousand
// pairs, a subject whose span is three key entries of a pair-form run.
const walkChunk = 1024

// walkFrozenUnderChurn freezes st, walks predicate p's frozen pairs —
// no fewer than least of them — while the callback adds, removes,
// merges and compacts, and checks that each freeze-time pair is visited
// exactly once.
func walkFrozenUnderChurn(t *testing.T, st *Store, p uint64, rng *rand.Rand, label string, least int) {
	t.Helper()
	frozen := st.Match(rdf.T(rdf.Any, rdf.ID(p), rdf.Any))
	if len(frozen) < least {
		t.Fatalf("%s: fixture holds %d live pairs, want at least %d", label, len(frozen), least)
	}
	v := st.Freeze()
	seen := make(map[rdf.Triple]int, len(frozen))
	v.ForEachWithPredicate(rdf.ID(p), func(s, o rdf.ID) bool {
		seen[rdf.T(s, rdf.ID(p), o)]++
		switch r := rng.Intn(1000); {
		case r < 250:
			st.Add(tr(uint64(1+rng.Intn(11999)), p, uint64(1+rng.Intn(8))))
		case r < 500:
			st.Remove(frozen[rng.Intn(len(frozen))])
		case r < 504:
			mergeDueWindows(st)
		case r < 510:
			x := tr(uint64(9000+rng.Intn(400)), p, 1)
			if st.Remove(x) {
				st.Compact()
				st.Add(x)
			}
		}
		return true
	})
	v.Release()

	for _, x := range frozen {
		if seen[x] != 1 {
			t.Fatalf("%s: freeze-time %v visited %d times", label, x, seen[x])
		}
		delete(seen, x)
	}
	for x := range seen {
		t.Fatalf("%s: %v visited but not present at freeze time", label, x)
	}
}

// TestViewMatchObjectFrozen pins the object-bound pattern (?, p, o)
// over a frozen view whose object extent spans every physical home —
// a compacted run, marker runs and one-pair runs — while a writer
// inserts pairs with the same object, removes compacted and one-pair
// ones, re-adds removed ones and compacts. Every answer
// must equal the freeze-time set: no post-freeze insert, no missed
// post-freeze removal. An early-stopping consumer gets exactly the rows
// it accepted.
func TestViewMatchObjectFrozen(t *testing.T) {
	const p, o = 5, 100
	st := New()
	st.SetAutoCompact(false)
	frozen := map[uint64]bool{}
	for s := uint64(1); s <= 120; s++ {
		st.Add(tr(s, p, o))
		st.Add(tr(s, p, o+1)) // a neighbouring object in the same runs
		frozen[s] = true
	}
	st.Compact()
	for s := uint64(1); s <= 20; s++ { // markers
		st.Remove(tr(s, p, o))
		delete(frozen, s)
	}
	for s := uint64(300); s <= 340; s++ { // one-pair runs
		st.Add(tr(s, p, o))
		frozen[s] = true
	}
	st.Remove(tr(300, p, o))
	delete(frozen, 300)
	var want []rdf.Triple
	for s := range frozen {
		want = append(want, tr(s, p, o))
	}

	v := st.Freeze()
	defer v.Release()
	match := func() []rdf.Triple {
		var out []rdf.Triple
		v.MatchEach(rdf.T(rdf.Any, p, o), func(t rdf.Triple) bool {
			out = append(out, t)
			return true
		})
		return out
	}
	sameTriples(t, match(), want, "at freeze")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := uint64(500); s < 600; s++ { // post-freeze inserts
			st.Add(tr(s, p, o))
		}
		for s := uint64(21); s <= 60; s++ { // compacted-run removals
			st.Remove(tr(s, p, o))
		}
		st.Compact()
		for s := uint64(301); s <= 320; s++ { // one-pair-run removals
			st.Remove(tr(s, p, o))
		}
		for s := uint64(1); s <= 5; s++ { // re-added after a marker
			st.Add(tr(s, p, o))
		}
		st.Compact()
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		sameTriples(t, match(), want, "under concurrent writes")
	}
	sameTriples(t, match(), want, "after writes and compaction")

	for _, k := range []int{1, 2, len(want) / 2, len(want)} {
		rows, seen := 0, map[rdf.Triple]bool{}
		v.MatchEach(rdf.T(rdf.Any, p, o), func(t rdf.Triple) bool {
			rows++
			seen[t] = true
			return rows < k
		})
		if rows != k || len(seen) != k {
			t.Fatalf("stop after %d rows: got %d rows, %d distinct", k, rows, len(seen))
		}
		for x := range seen {
			if !frozen[uint64(x.S)] {
				t.Fatalf("stop after %d rows: %v not in the frozen set", k, x)
			}
		}
	}
}

// TestViewWalkReachesWidestID walks a pair-form run whose last subject
// is the widest ID, 2^32−1, with thousands of key entries, beside a
// one-pair run: a cursor past that maximum would wrap to 0 and walk the
// pairs again.
func TestViewWalkReachesWidestID(t *testing.T) {
	const p, widest = 5, 1<<32 - 1
	withForm(t, &pairForm)
	st := New()
	st.SetAutoCompact(false)
	var want []rdf.Triple
	add := func(s, o uint64) {
		st.Add(tr(s, p, o))
		want = append(want, tr(s, p, o))
	}
	for s := uint64(1); s <= 10; s++ {
		add(s, 1)
	}
	for o := uint64(1); o <= 2*walkChunk; o++ {
		add(widest, o)
	}
	st.Compact()
	add(20, 1)
	v := st.Freeze()
	defer v.Release()
	var got []rdf.Triple
	v.ForEachWithPredicate(p, func(s, o rdf.ID) bool {
		got = append(got, rdf.T(s, p, o))
		return len(got) <= len(want) // a wrapped cursor walks again
	})
	sameTriples(t, got, want, "walk over a run ending at the widest ID")
}

// TestFreezeSeesWholeBatch checks that a batch becomes visible whole:
// one goroutine adds and removes batches that each hold, for every
// subject they touch, one pair on each of three predicates, while
// another freezes in a loop. Every view must hold all three triples of
// a subject or none of them.
func TestFreezeSeesWholeBatch(t *testing.T) {
	const batches, perBatch, window = 3000, 2, 8
	preds := []rdf.ID{1, 2, 3}
	batch := func(i rdf.ID) []rdf.Triple {
		var b []rdf.Triple
		for s := i * perBatch; s < (i+1)*perBatch; s++ {
			for _, p := range preds {
				b = append(b, rdf.T(s, p, s+1))
			}
		}
		return b
	}
	st := New()
	done := make(chan struct{})
	defer func() { <-done }() // a failing check still waits for the writer
	go func() {
		defer close(done)
		for i := rdf.ID(0); i < batches; i++ {
			st.AddBatch(batch(i))
			if i >= window {
				st.RemoveAll(batch(i - window))
			}
		}
	}()
	for freezes := 0; ; freezes++ {
		select {
		case <-done:
			if freezes == 0 {
				t.Fatal("no freeze ran beside the writer")
			}
			return
		default:
		}
		v := st.Freeze()
		n := v.PredicateLen(preds[0])
		for _, p := range preds[1:] {
			if m := v.PredicateLen(p); m != n {
				t.Fatalf("freeze %d: predicate %d holds %d pairs, predicate %d holds %d: a batch is visible in part", freezes, preds[0], n, p, m)
			}
		}
		v.ForEachWithPredicate(preds[0], func(s, o rdf.ID) bool {
			for _, p := range preds[1:] {
				if !v.Contains(rdf.T(s, p, o)) {
					t.Fatalf("freeze %d: (%d, %d, %d) is visible without (%d, %d, %d)", freezes, s, preds[0], o, s, p, o)
				}
			}
			return true
		})
	}
}
