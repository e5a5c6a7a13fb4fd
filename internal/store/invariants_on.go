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

// assertAccounting checks the partition's O(1) physical-pair identity:
// every live pair has exactly one physical home, so the live count n
// must equal physical run pairs minus tombstoned ones plus overlay
// pairs (rp - tombN + onum == n). Callers hold the partition lock.
func (p *partition) assertAccounting() {
	if p.rp-p.tombN+p.onum != p.n {
		panic(fmt.Sprintf("store invariant: pair accounting broken: rp=%d - tombN=%d + onum=%d != n=%d",
			p.rp, p.tombN, p.onum, p.n))
	}
	if p.tombN < 0 || p.onum < 0 || p.n < 0 || p.rp < 0 {
		panic(fmt.Sprintf("store invariant: negative count: rp=%d tombN=%d onum=%d n=%d",
			p.rp, p.tombN, p.onum, p.n))
	}
}

// assertOverlayShape checks that the overlay maps hold overlay pairs
// only. The sets at subject s and object o — the ones add or remove just
// touched — must be absent or non-empty. The full check, no empty set
// anywhere and each direction's summed set sizes equal to onum, is an
// O(overlay) scan, so it runs only when onum is zero or a power of two:
// after every flush, and at a geometric sample of overlay sizes, which
// keeps checked writes amortised O(1). An empty set left behind would be
// a subject the overlay no longer holds, gathered by every view walk
// chunk and counted by PredicateStats. Callers hold the partition lock.
func (p *partition) assertOverlayShape(s, o rdf.ID) {
	if set, ok := p.so[s]; ok && len(set) == 0 {
		panic(fmt.Sprintf("store invariant: empty object set left in overlay for subject %d", s))
	}
	if set, ok := p.os[o]; ok && len(set) == 0 {
		panic(fmt.Sprintf("store invariant: empty subject set left in overlay for object %d", o))
	}
	if p.onum&(p.onum-1) != 0 {
		return
	}
	for dir, m := range map[string]map[rdf.ID]idSet{"subject": p.so, "object": p.os} {
		n := 0
		for k, set := range m {
			if len(set) == 0 {
				panic(fmt.Sprintf("store invariant: empty set left in overlay %s map at key %d", dir, k))
			}
			n += len(set)
		}
		if n != p.onum {
			panic(fmt.Sprintf("store invariant: overlay %s map holds %d pairs, want onum=%d", dir, n, p.onum))
		}
	}
}

// assertLive checks the one-physical-home invariant for a pair that
// must be live: it is in the overlay XOR (in a run and not tombstoned).
// Callers hold the partition lock.
func (p *partition) assertLive(s, o rdf.ID) {
	_, overlay := p.so[s][o]
	inRuns := p.runsContain(s, o)
	tombed := p.tombHas(s, o)
	if overlay && inRuns && !tombed {
		panic(fmt.Sprintf("store invariant: pair (%d,%d) live in both overlay and a run", s, o))
	}
	if overlay && tombed {
		panic(fmt.Sprintf("store invariant: pair (%d,%d) in overlay yet tombstoned", s, o))
	}
	if !overlay && !(inRuns && !tombed) {
		panic(fmt.Sprintf("store invariant: pair (%d,%d) expected live but has no physical home (overlay=%v runs=%v tomb=%v)",
			s, o, overlay, inRuns, tombed))
	}
	if tombed && !inRuns {
		panic(fmt.Sprintf("store invariant: pair (%d,%d) tombstoned but in no run", s, o))
	}
}

// assertDead checks that a pair just removed (or never present) is
// dead: not in the overlay, and any run copy is tombstoned. Callers
// hold the partition lock.
func (p *partition) assertDead(s, o rdf.ID) {
	if _, ok := p.so[s][o]; ok {
		panic(fmt.Sprintf("store invariant: pair (%d,%d) expected dead but still in overlay", s, o))
	}
	if p.runsContain(s, o) && !p.tombHas(s, o) {
		panic(fmt.Sprintf("store invariant: pair (%d,%d) expected dead but live in a run", s, o))
	}
	if p.tombHas(s, o) && !p.runsContain(s, o) {
		panic(fmt.Sprintf("store invariant: pair (%d,%d) tombstoned but in no run", s, o))
	}
}

// checkRun validates a freshly built or merged run's shape in both
// directions: the (key, value) pairs strictly ascending, the distinct
// key count right, and the form well formed — in CSR form strictly
// ascending keys and offsets bracketed by 0 and the pair count with no
// empty spans, in pair form one key per value. The keys are the run's only index — objectsOf and
// subjectsOf binary search them — so ascending keys are what makes a
// probe find its span (and the only span). Runs are immutable after
// publication, so passing here once means the shape holds forever.
func checkRun(r *run) {
	checkDirection(r, "subject", &r.bySub)
	checkDirection(r, "object", &r.byObj)
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
