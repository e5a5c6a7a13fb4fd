//go:build slider_invariants

package store

import (
	"fmt"

	"repro/internal/rdf"
)

// invariantsEnabled gates the runtime invariant assertions. This file
// (the checking implementation) is compiled only under the
// slider_invariants build tag; invariants_off.go supplies the no-op
// twins for normal builds, where the constant false lets the compiler
// delete every call site. Run them with:
//
//	go test -race -tags slider_invariants ./internal/store ./internal/maintenance
const invariantsEnabled = true

// checkRunList checks a run list as it is installed: at most maxRuns
// runs, none empty; pair accounting, each marker cancelling one older
// add (add pairs - marker pairs == n); and add/marker alternation: each
// pair's occurrences, oldest first, alternate add, marker, add, …,
// starting with an add. The alternation scan costs O(pairs × runs), so
// it covers the pairs of the runs in fresh — the run an append added,
// the runs a merge produced — whose placement is what can break it.
func checkRunList(runs []*run, n int, fresh ...*run) {
	if len(runs) > maxRuns {
		panic(fmt.Sprintf("store invariant: %d runs under one predicate, bound %d", len(runs), maxRuns))
	}
	live := 0
	for i, r := range runs {
		if r.pairs == 0 {
			panic(fmt.Sprintf("store invariant: run %d of %d is empty", i, len(runs)))
		}
		if r.del {
			live -= r.pairs
		} else {
			live += r.pairs
		}
	}
	if live != n {
		panic(fmt.Sprintf("store invariant: pair accounting broken: add pairs - marker pairs = %d, want n=%d", live, n))
	}
	for _, f := range fresh {
		f.forEach(func(s, o rdf.ID) bool {
			want := false // the kind the next occurrence must have: add first
			for i, r := range runs {
				if !r.contains(s, o) {
					continue
				}
				if r.del != want {
					panic(fmt.Sprintf("store invariant: pair (%d,%d) breaks add/marker alternation at run %d of %d (marker=%v)",
						s, o, i, len(runs), r.del))
				}
				want = !want
			}
			return true
		})
	}
}

// checkRun validates a freshly built or merged run's shape in both
// directions: the (key, value) pairs strictly ascending, the distinct
// key count right, and the form well formed — in CSR form strictly
// ascending keys and offsets bracketed by 0 and the pair count with no
// empty spans, in pair form one key per value — and its explicit
// bitmap, when it has one, sized to the pairs of an add run. The keys
// are the run's only index — objectsOf and subjectsOf binary search
// them — so ascending keys are what makes a probe find its span (and the
// only span). Runs are immutable after publication, so passing here
// once means the shape holds forever.
func checkRun(r *run) {
	checkDirection(r, "subject", &r.bySub)
	checkDirection(r, "object", &r.byObj)
	if r.expl == nil {
		return
	}
	if r.del {
		panic("store invariant: a marker run carries an explicit bitmap")
	}
	if len(r.expl) != (r.pairs+63)>>6 {
		panic(fmt.Sprintf("store invariant: explicit bitmap of %d words for %d pairs", len(r.expl), r.pairs))
	}
	if r.pairs&63 != 0 && r.expl[len(r.expl)-1]>>(r.pairs&63) != 0 {
		panic(fmt.Sprintf("store invariant: explicit bitmap has bits past its %d pairs", r.pairs))
	}
}

func checkDirection(r *run, dir string, d *direction) {
	if len(d.vals) != r.pairs {
		panic(fmt.Sprintf("store invariant: run %s direction holds %d values, want pairs=%d", dir, len(d.vals), r.pairs))
	}
	ks := d.keys // the key of every value
	if d.off != nil {
		if len(d.off) != len(d.keys)+1 || d.off[0] != 0 || int(d.off[len(d.keys)]) != len(d.vals) {
			panic(fmt.Sprintf("store invariant: run %s has %d offsets for %d keys (want keys+1, bracketed by 0 and %d values)",
				dir, len(d.off), len(d.keys), len(d.vals)))
		}
		ks = make([]rdf.ID, 0, len(d.vals))
		for i, k := range d.keys {
			if i > 0 && d.keys[i-1] >= k {
				panic(fmt.Sprintf("store invariant: run %s keys not strictly ascending at %d: %d >= %d", dir, i, d.keys[i-1], k))
			}
			if d.off[i] >= d.off[i+1] {
				panic(fmt.Sprintf("store invariant: run %s key %d has empty or inverted span [%d:%d]", dir, k, d.off[i], d.off[i+1]))
			}
			for range d.off[i+1] - d.off[i] {
				ks = append(ks, k)
			}
		}
	} else if len(d.keys) != len(d.vals) {
		panic(fmt.Sprintf("store invariant: run %s pair form holds %d keys for %d values", dir, len(d.keys), len(d.vals)))
	}
	distinct := 0
	for j, k := range ks {
		if j > 0 && (ks[j-1] > k || ks[j-1] == k && d.vals[j-1] >= d.vals[j]) {
			panic(fmt.Sprintf("store invariant: run %s pairs not strictly ascending at %d: (%d, %d) >= (%d, %d)",
				dir, j, ks[j-1], d.vals[j-1], k, d.vals[j]))
		}
		if j == 0 || ks[j-1] != k {
			distinct++
		}
	}
	if distinct != d.nkeys {
		panic(fmt.Sprintf("store invariant: run %s direction has %d distinct keys, records %d", dir, distinct, d.nkeys))
	}
}
