package store

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// pair is one (subject, object) of a partition, as the tests spell it.
type pair struct {
	s, o rdf.ID
}

func comparePairs(a, b pair) int { return cmp.Compare(pairKey(a.s, a.o), pairKey(b.s, b.o)) }

func sortPairs(ps []pair) { slices.SortFunc(ps, comparePairs) }

// runOf builds a run from pairs sorted by (subject, object) with no
// duplicates.
func runOf(ps []pair, del bool) *run {
	ks := make([]uint64, len(ps))
	for i, pr := range ps {
		ks[i] = pairKey(pr.s, pr.o)
	}
	return buildRun(ks, del, nil)
}

// sortedSetEq reports whether got is ascending, duplicate-free and equal
// as a set to want (order-insensitive on want).
func sortedSetEq(got, want []rdf.ID) bool {
	if !slices.IsSorted(got) {
		return false
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			return false
		}
	}
	w := slices.Clone(want)
	slices.Sort(w)
	w = slices.Compact(w)
	return slices.Equal(got, w)
}

// snapshotSet collects a source's triples as a set.
func snapshotSet(forEach func(func(rdf.Triple) bool)) map[rdf.Triple]bool {
	out := map[rdf.Triple]bool{}
	forEach(func(t rdf.Triple) bool {
		out[t] = true
		return true
	})
	return out
}

// TestCompactionEquivalenceProperty drives a store with the background
// compactor off through a random interleaving of adds, batch adds,
// removes, due-window merges, full compactions and view freeze/release
// cycles, and checks after every few steps that it agrees with a model
// map on Contains, Len, sorted extents and the full triple set. This is
// the core "compaction is physically transparent" property.
func TestCompactionEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lsm := New()
		lsm.SetAutoCompact(false) // deterministic: we merge ourselves
		ref := map[rdf.Triple]bool{}
		var frozen *View
		var frozenSet map[rdf.Triple]bool
		defer func() {
			if frozen != nil {
				frozen.Release()
			}
		}()
		steps := int(n)*4 + 8
		for i := 0; i < steps; i++ {
			x := tr(uint64(rng.Intn(10)+1), uint64(rng.Intn(4)+1), uint64(rng.Intn(10)+1))
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				if lsm.Add(x) == ref[x] {
					return false
				}
				ref[x] = true
			case 4, 5:
				batch := []rdf.Triple{x, rdf.T(x.S+1, x.P, x.O), rdf.T(x.S, x.P, x.O+1)}
				lsm.AddBatch(batch)
				for _, b := range batch {
					ref[b] = true
				}
			case 6:
				if lsm.Remove(x) != ref[x] {
					return false
				}
				delete(ref, x)
			case 7:
				mergeDueWindows(lsm)
			case 8:
				lsm.Compact()
			case 9:
				if frozen == nil {
					frozen = lsm.Freeze()
					frozenSet = snapshotSet(frozen.ForEach)
				} else {
					// The frozen view must still show exactly its capture,
					// regardless of the mutations and compactions since.
					if !mapsEqual(frozenSet, snapshotSet(frozen.ForEach)) {
						return false
					}
					frozen.Release()
					frozen, frozenSet = nil, nil
				}
			}
			if i%4 != 0 {
				continue
			}
			if lsm.Len() != len(ref) {
				return false
			}
			if !mapsEqual(ref, snapshotSet(lsm.ForEach)) {
				return false
			}
			for p := rdf.ID(1); p <= 4; p++ {
				for k := rdf.ID(1); k <= 11; k++ {
					var objs, subs []rdf.ID
					for x := range ref {
						if x.P == p && x.S == k {
							objs = append(objs, x.O)
						}
						if x.P == p && x.O == k {
							subs = append(subs, x.S)
						}
					}
					if !sortedSetEq(lsm.ObjectsAppend(nil, p, k), objs) || !sortedSetEq(lsm.SubjectsAppend(nil, p, k), subs) {
						return false
					}
				}
			}
		}
		for x := range ref {
			if !lsm.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// mergeDueWindows runs the background compactor's pass over every
// predicate of the root, synchronously: it merges each due window.
func mergeDueWindows(st *Store) {
	for _, p := range st.root().preds {
		st.mergePredicate(p, false)
	}
}

func mapsEqual(a, b map[rdf.Triple]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestSortedExtentsAcrossLayouts pins the sorted-output contract in the
// mixed state the equivalence property only samples: part of the extent
// compacted into one run, part removed by marker runs, part fresh in
// one-pair runs.
func TestSortedExtentsAcrossLayouts(t *testing.T) {
	st := New()
	st.SetAutoCompact(false)
	const p = rdf.ID(7)
	// Compacted: evens 0..198. One-pair runs: odds 101..199. Markers:
	// evens 0..98.
	for o := uint64(0); o < 200; o += 2 {
		st.Add(tr(1, uint64(p), o+1000))
	}
	st.Compact()
	for o := uint64(101); o < 200; o += 2 {
		st.Add(tr(1, uint64(p), o+1000))
	}
	for o := uint64(0); o < 100; o += 2 {
		st.Remove(tr(1, uint64(p), o+1000))
	}
	var want []rdf.ID
	for o := uint64(100); o < 200; o++ {
		if o%2 == 0 || o > 100 {
			want = append(want, rdf.ID(o+1000))
		}
	}
	got := st.ObjectsAppend(nil, p, 1)
	if !sortedSetEq(got, want) {
		t.Fatalf("mixed-layout extent wrong:\n got %v\nwant %v", got, want)
	}
	// The same picture through a frozen view.
	v := st.Freeze()
	defer v.Release()
	if got := v.ObjectsAppend(nil, p, 1); !sortedSetEq(got, want) {
		t.Fatalf("view extent wrong: %v", got)
	}
	// And reversed: every surviving object maps back to subject 1.
	for _, o := range want {
		if subs := st.SubjectsAppend(nil, p, o); !slices.Equal(subs, []rdf.ID{1}) {
			t.Fatalf("SubjectsAppend(%d) = %v, want [1]", o, subs)
		}
	}
}

// probeDomain is the ascending ID domain of the run probe tests: per
// kind, sequence numbers 0–5 and 2^30−5 to 2^30−1, then the first and
// last ID of the unused kind bits 11. Keys are drawn from probeKey's
// sequence numbers, so the domain holds every present key and absent
// ones below the minimum, above the maximum (up to the widest ID) and in
// the gaps, including each kind edge — the cases a binary search over
// the key slice can get wrong.
var probeDomain = func() []rdf.ID {
	var d []rdf.ID
	for kind := range rdf.ID(3) {
		for _, seq := range []rdf.ID{0, 1, 2, 3, 4, 5, 1<<30 - 5, 1<<30 - 4, 1<<30 - 3, 1<<30 - 2, 1<<30 - 1} {
			d = append(d, kind<<30|seq)
		}
	}
	return append(d, 3<<30, 1<<32-1)
}()

// probeKey returns the i-th of probeDomain's 18 key candidates, kind by
// kind: sequence numbers 1, 3, 5, 2^30−5, 2^30−3 and 2^30−1.
func probeKey(i int) rdf.ID {
	return probeDomain[11*(i/6)+[]int{1, 3, 5, 6, 8, 10}[i%6]]
}

// withForm makes every direction built until the test ends take pair
// form (*pairs true) or CSR form (false); nil keeps the size rule.
func withForm(t testing.TB, pairs *bool) {
	testHookPairForm.Store(pairs)
	t.Cleanup(func() { testHookPairForm.Store(nil) })
}

// forms are the three ways a direction's form is chosen: by the size
// rule, forced CSR and forced pairs.
var (
	csrForm, pairForm = false, true
	forms             = map[string]*bool{"sized": nil, "csr": &csrForm, "pairs": &pairForm}
)

// checkRunProbes compares a run's objectsOf, subjectsOf, contains and
// forEach with a map oracle over ps, sorted by (subject,
// object), for every ID of probeDomain.
func checkRunProbes(t testing.TB, name string, r *run, ps []pair) {
	t.Helper()
	objsOf := map[rdf.ID][]rdf.ID{}
	subsOf := map[rdf.ID][]rdf.ID{}
	has := map[pair]bool{}
	for _, pr := range ps {
		objsOf[pr.s] = append(objsOf[pr.s], pr.o)
		subsOf[pr.o] = append(subsOf[pr.o], pr.s)
		has[pr] = true
	}
	if r.pairs != len(ps) {
		t.Fatalf("%s: run holds %d pairs, want %d", name, r.pairs, len(ps))
	}
	for _, k := range probeDomain {
		want := slices.Sorted(slices.Values(objsOf[k]))
		if got := r.objectsOf(k); !slices.Equal(got, want) {
			t.Fatalf("%s: objectsOf(%#x) = %v, want %v", name, k, got, want)
		}
		want = slices.Sorted(slices.Values(subsOf[k]))
		if got := r.subjectsOf(k); !slices.Equal(got, want) {
			t.Fatalf("%s: subjectsOf(%#x) = %v, want %v", name, k, got, want)
		}
		for _, o := range probeDomain {
			if got := r.contains(k, o); got != has[pair{s: k, o: o}] {
				t.Fatalf("%s: contains(%#x, %#x) = %v, want %v", name, k, o, got, !got)
			}
		}
	}
	var got []pair
	r.forEach(func(s, o rdf.ID) bool {
		got = append(got, pair{s: s, o: o})
		return true
	})
	if !slices.Equal(got, ps) {
		t.Fatalf("%s: forEach = %v, want %v", name, got, ps)
	}
}

// TestRunProbesProperty pins the run's binary-search probes against a
// map oracle for every way a run is built: from sorted pairs, by merging
// 2–4 disjoint runs that share keys, and by merging a run list with
// delete markers. IDs
// span all three kinds up to sequence number 2^30−1. Each direction
// takes the form the size rule picks, and then each form forced.
func TestRunProbesProperty(t *testing.T) {
	for name, pairs := range forms {
		t.Run(name, func(t *testing.T) {
			withForm(t, pairs)
			testRunProbes(t)
		})
	}
}

func testRunProbes(t *testing.T) {
	k := probeKey
	fixed := map[string][]pair{
		"empty":        nil,
		"one pair":     {{s: k(2), o: k(7)}},
		"one subject":  {{s: k(8), o: k(0)}, {s: k(8), o: k(11)}, {s: k(8), o: k(17)}},
		"one object":   {{s: k(0), o: k(15)}, {s: k(10), o: k(15)}, {s: k(17), o: k(15)}},
		"extreme keys": {{s: k(0), o: k(17)}, {s: k(17), o: k(0)}},
		"kind edges":   {{s: k(5), o: k(6)}, {s: k(6), o: k(5)}, {s: k(11), o: k(12)}, {s: k(12), o: k(11)}},
		"hub and leaves": {{s: k(0), o: k(1)}, {s: k(1), o: k(2)}, {s: k(2), o: k(0)}, {s: k(2), o: k(1)},
			{s: k(2), o: k(3)}, {s: k(2), o: k(4)}, {s: k(2), o: k(5)}, {s: k(2), o: k(6)}, {s: k(3), o: k(2)},
			{s: k(4), o: k(2)}, {s: k(5), o: k(2)}, {s: k(6), o: k(2)}, {s: k(7), o: k(2)}, {s: k(8), o: k(2)}},
	}
	for name, ps := range fixed {
		sortPairs(ps)
		checkRunProbes(t, name+"/buildRun", runOf(ps, false), ps)
		checkRunProbes(t, name+"/merge", mergeRuns([]*run{runOf(ps, false), runOf(nil, false)}), ps)
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		set := map[pair]bool{}
		for n := rng.Intn(60); len(set) < n; {
			set[pair{s: k(rng.Intn(18)), o: k(rng.Intn(18))}] = true
		}
		ps := slices.Collect(maps.Keys(set))
		sortPairs(ps)
		checkRunProbes(t, "random/buildRun", runOf(ps, false), ps)

		// Deal the pairs to k disjoint inputs: subjects and objects recur
		// across inputs, so the merge fuses spans under shared keys.
		k := 2 + rng.Intn(3)
		parts := make([][]pair, k)
		for _, pr := range ps {
			i := rng.Intn(k)
			parts[i] = append(parts[i], pr)
		}
		ins := make([]*run, k)
		for i, part := range parts {
			ins[i] = runOf(part, false)
		}
		checkRunProbes(t, "random/merge", mergeRuns(ins), ps)
		checkMarkerList(t, "random/markers", ins, rng.Int63())
	}
}

// checkMarkerList extends disjoint add runs ins into a run list with
// delete markers — a seeded schedule of marker runs removing live pairs
// and add runs bringing removed ones back, so a pair's occurrences
// alternate add, marker, add — and checks the list's reads, and those
// of every merge of a window of it, against a model set.
func checkMarkerList(t testing.TB, name string, ins []*run, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := map[pair]bool{}
	runs := slices.Clone(ins)
	for _, r := range ins {
		r.forEach(func(s, o rdf.ID) bool { model[pair{s: s, o: o}] = true; return true })
	}
	all := slices.Collect(maps.Keys(model))
	sortPairs(all)
	for range 3 {
		var dels, adds []pair
		for _, pr := range all {
			switch {
			case model[pr] && rng.Intn(3) == 0:
				dels = append(dels, pr)
			case !model[pr] && rng.Intn(2) == 0:
				adds = append(adds, pr)
			}
		}
		for _, pr := range dels {
			model[pr] = false
		}
		for _, pr := range adds {
			model[pr] = true
		}
		if len(dels) > 0 {
			runs = append(runs, runOf(dels, true))
		}
		if len(adds) > 0 {
			runs = append(runs, runOf(adds, false))
		}
	}
	var want []pair
	for _, pr := range all {
		if model[pr] {
			want = append(want, pr)
		}
	}
	checkListReads(t, name, runs, all, want)
	// Every window that ends at the newest run or starts at the oldest.
	for k := 1; k < len(runs); k++ {
		for _, w := range [][2]int{{k, len(runs)}, {0, k + 1}} {
			i, j := w[0], w[1]
			merged := slices.Concat(runs[:i], mergeRange(runs[:i], runs[i:j]), runs[j:])
			checkListReads(t, fmt.Sprintf("%s/merge[%d:%d]", name, i, j), merged, all, want)
			if i == 0 && j == len(runs) && len(merged) > 1 {
				t.Fatalf("%s: a full merge left %d runs", name, len(merged))
			}
		}
	}
	if full := mergeRange(nil, runs); len(full) == 1 {
		checkRunProbes(t, name+"/full", full[0], want)
	}
}

// checkListReads compares the list reads — live over the pairs ever
// written, objectsAppend, subjectsAppend, forEachLive and keyCounts'
// subject bound — with the live pairs want, sorted by (subject, object).
func checkListReads(t testing.TB, name string, runs []*run, written, want []pair) {
	t.Helper()
	has := map[pair]bool{}
	objsOf := map[rdf.ID][]rdf.ID{}
	subsOf := map[rdf.ID][]rdf.ID{}
	for _, pr := range want {
		has[pr] = true
		objsOf[pr.s] = append(objsOf[pr.s], pr.o)
		subsOf[pr.o] = append(subsOf[pr.o], pr.s)
	}
	for _, k := range probeDomain {
		if got, w := objectsAppend(runs, nil, k), slices.Sorted(slices.Values(objsOf[k])); !slices.Equal(got, w) {
			t.Fatalf("%s: objectsAppend(%#x) = %v, want %v", name, k, got, w)
		}
		if got, w := subjectsAppend(runs, nil, k), slices.Sorted(slices.Values(subsOf[k])); !slices.Equal(got, w) {
			t.Fatalf("%s: subjectsAppend(%#x) = %v, want %v", name, k, got, w)
		}
	}
	for _, pr := range written {
		if got := live(runs, pr.s, pr.o); got != has[pr] {
			t.Fatalf("%s: live(%#x, %#x) = %v, want %v", name, pr.s, pr.o, got, !got)
		}
	}
	var got []pair
	forEachLive(runs, func(s, o rdf.ID) bool {
		got = append(got, pair{s: s, o: o})
		return true
	})
	sortPairs(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: forEachLive = %v, want %v", name, got, want)
	}
	if subjects, _ := keyCounts(runs); subjects < len(objsOf) {
		t.Fatalf("%s: keyCounts bounds %d subjects, %d are live", name, subjects, len(objsOf))
	}
}

// FuzzRunForms decodes its input into pairs — per pair a subject, an
// object and an input byte, the IDs drawn from probeKey's 18 keys — and
// builds them into runs from sorted pairs and by merging up to four
// inputs, in each forced form. Probes and forEach must match the map
// oracle. The four inputs then grow into a run list with delete-marker
// runs (seeded by the input's length), whose reads and window merges
// must match the model set.
func FuzzRunForms(f *testing.F) {
	f.Add([]byte("\x00\x01\x00\x00\x02\x01\x00\x03\x02\x01\x00\x03"))
	f.Add([]byte("\x02\x00\x00\x02\x01\x01\x02\x03\x02\x02\x04\x03\x05\x02\x00\x11\x11\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		set := map[pair]bool{}
		ins := make([][]pair, 4)
		for ; len(data) >= 3 && len(set) < 200; data = data[3:] {
			pr := pair{s: probeKey(int(data[0]) % 18), o: probeKey(int(data[1]) % 18)}
			if !set[pr] {
				set[pr] = true
				ins[data[2]%4] = append(ins[data[2]%4], pr)
			}
		}
		ps := slices.Collect(maps.Keys(set))
		sortPairs(ps)
		for _, name := range []string{"csr", "pairs"} {
			withForm(t, forms[name])
			checkRunProbes(t, name+"/buildRun", runOf(ps, false), ps)
			runs := make([]*run, len(ins))
			for i, in := range ins {
				sortPairs(in)
				runs[i] = runOf(in, false)
			}
			checkRunProbes(t, name+"/merge", mergeRuns(runs), ps)
			checkMarkerList(t, name+"/markers", runs, int64(len(ps)))
		}
	})
}

// TestRunArraysExactLength checks that every array of a run built from
// sorted pairs, by merging, or by merging with markers is allocated at
// its final length, in either form: capacity a builder over-reserves stays on the
// heap for the run's life. Merged inputs share keys, which an upper
// bound summing the inputs' key counts would count twice.
func TestRunArraysExactLength(t *testing.T) {
	for name, pairs := range forms {
		t.Run(name, func(t *testing.T) {
			withForm(t, pairs)
			rng := rand.New(rand.NewSource(2))
			set := map[pair]bool{}
			for len(set) < 250 { // subjects mostly of degree 1, objects of degree ~12
				set[pair{s: rdf.ID(1 + rng.Intn(200)), o: rdf.ID(1 + rng.Intn(20))}] = true
			}
			ps := slices.Collect(maps.Keys(set))
			sortPairs(ps)
			parts := make([][]pair, 3)
			for i, pr := range ps {
				parts[i%3] = append(parts[i%3], pr)
			}
			runs := map[string]*run{
				"buildRun": runOf(ps, false),
				"merge":    mergeRuns([]*run{runOf(parts[0], false), runOf(parts[1], false), runOf(parts[2], false)}),
				"markers":  mergeRange(nil, []*run{runOf(ps, false), runOf(parts[1], true)})[0],
			}
			for how, r := range runs {
				for dir, d := range map[string]*direction{"subject": &r.bySub, "object": &r.byObj} {
					if len(d.keys) != cap(d.keys) || len(d.off) != cap(d.off) || len(d.vals) != cap(d.vals) {
						t.Errorf("%s %s direction: len/cap keys %d/%d, off %d/%d, vals %d/%d", how, dir,
							len(d.keys), cap(d.keys), len(d.off), cap(d.off), len(d.vals), cap(d.vals))
					}
				}
			}
		})
	}
}

// TestPredicateStatsExactAfterCompact pins PredicateStats to the exact
// distinct subject and object counts of a compacted partition whose
// subject direction is in pair form and whose object direction is CSR:
// a pair-form direction holds a key per pair, not per distinct key.
func TestPredicateStatsExactAfterCompact(t *testing.T) {
	const p = 1
	st := New()
	st.SetAutoCompact(false)
	for s := uint64(1); s <= 300; s++ {
		st.Add(tr(s, p, 1000+s%10))
		if s%50 == 0 { // a few degree-2 subjects, spread over several runs
			st.Add(tr(s, p, 2000))
		}
	}
	st.Compact()
	runs := st.root().list(p).get()
	if len(runs) != 1 || runs[0].bySub.off != nil || runs[0].byObj.off == nil {
		t.Fatalf("want one run with subjects in pair form and objects in CSR form, got %d runs", len(runs))
	}
	if n, subjects, objects := st.PredicateStats(p); n != 306 || subjects != 300 || objects != 11 {
		t.Fatalf("PredicateStats = %d triples, %d subjects, %d objects; want 306, 300, 11", n, subjects, objects)
	}
}

// TestStatsAccounting checks the physical pair accounting: each marker
// pair cancels one older add pair, so live pairs must equal RunPairs -
// Tombstones through appends, merges and purges.
func TestStatsAccounting(t *testing.T) {
	st := New()
	st.SetAutoCompact(false)
	for i := uint64(0); i < 500; i++ {
		st.Add(tr(i%50, 1, i))
	}
	for i := uint64(500); i < 700; i++ {
		st.Add(tr(i%50, 1, i))
	}
	for i := uint64(0); i < 100; i++ {
		st.Remove(tr(i%50, 1, i))
	}
	check := func(stage string) {
		s := st.Stats()
		if live := s.RunPairs - s.Tombstones; live != st.Len() || live != s.Triples {
			t.Fatalf("%s: run=%d tomb=%d -> live %d, want %d",
				stage, s.RunPairs, s.Tombstones, live, st.Len())
		}
	}
	check("mixed")
	st.Compact()
	check("compacted")
	s := st.Stats()
	if s.Tombstones != 0 || s.OverlayPairs != 0 || s.Runs != 1 {
		t.Fatalf("compacted store still has markers or unmerged runs: %+v", s)
	}
	if s.Compaction.Merges == 0 || s.Compaction.Purges == 0 {
		t.Fatalf("compaction counters did not move: %+v", s.Compaction)
	}
}

// TestCompactionUnderIngestStress races the background compactor
// against concurrent batch ingest, removals and view freeze/iterate
// cycles — the -race CI smoke for the run-list machinery. Writers
// own disjoint subject spaces so the final state is exactly computable.
func TestCompactionUnderIngestStress(t *testing.T) {
	st := New() // background compaction on
	const (
		writers = 4
		rounds  = 6
		perIns  = 3000
	)
	batches := 40
	if testing.Short() {
		batches = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) * 1_000_000
			for b := 0; b < batches; b++ {
				batch := make([]rdf.Triple, 0, perIns/writers)
				for i := 0; i < perIns/writers; i++ {
					o := base + uint64(b*perIns+i)
					batch = append(batch, tr(base+uint64(i%97), uint64(w%3)+1, o))
				}
				st.AddBatch(batch)
				// Remove a slice of what this writer just added; no other
				// goroutine touches these keys.
				for i := 0; i < perIns/writers; i += 7 {
					st.Remove(batch[i])
				}
			}
		}(w)
	}
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for r := 0; r < rounds; r++ {
			v := st.Freeze()
			first := snapshotSet(v.ForEach)
			// A frozen view re-read while compaction and ingest churn
			// underneath must be byte-for-byte stable.
			second := snapshotSet(v.ForEach)
			if !mapsEqual(first, second) {
				t.Error("frozen view changed between iterations")
			}
			for x := range first {
				if !v.Contains(x) {
					t.Errorf("view iteration emitted %v but Contains denies it", x)
					break
				}
			}
			v.Release()
		}
	}()
	wg.Wait()
	readerWg.Wait()
	// Synchronous full compaction serializes behind any in-flight
	// background pass, so the accounting below sees a settled store.
	st.Compact()

	// Deterministic final state: every written triple except the i%7
	// removals, per writer.
	want := 0
	for w := 0; w < writers; w++ {
		for b := 0; b < batches; b++ {
			n := perIns / writers
			want += n - (n+6)/7
		}
	}
	if st.Len() != want {
		t.Fatalf("final Len = %d, want %d", st.Len(), want)
	}
	s := st.Stats()
	if live := s.RunPairs - s.Tombstones; live != want {
		t.Fatalf("physical accounting drifted: %+v -> %d, want %d", s, live, want)
	}
	// Sorted contract holds on the post-race store.
	for w := 0; w < writers; w++ {
		base := uint64(w+1) * 1_000_000
		objs := st.ObjectsAppend(nil, rdf.ID(uint64(w%3)+1), rdf.ID(base))
		if !slices.IsSorted(objs) {
			t.Fatalf("writer %d extent unsorted", w)
		}
	}
}
