package store

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/rdf"
)

// run is an immutable, sorted segment of one predicate's pairs. AddBatch
// appends the fresh pairs of each batch as an add run, Remove appends
// the removed pairs as a delete-marker run (del set), and the compactor
// merges adjacent runs (see compact.go). A run is never modified after
// buildRun or mergeRuns returns, so a reader holding a run list reads it
// without any lock.
//
// A run indexes its pairs in both directions: subject→objects for
// (p, s, ?) probes and object→subjects for (p, ?, o) probes. Each
// direction finds a key's span by binary search over its ascending
// keys and yields a contiguous ascending slice — the shape the
// galloping join intersection and the checkpoint stream want.
// Every array holds the 32-bit IDs themselves, so readers copy spans
// straight into the caller's buffer.
//
// An add run also says which of its pairs were asserted rather than
// inferred: expl holds one bit per pair, bit i for the pair at position i
// of bySub.vals. It is nil when no pair of the run is explicit, and
// always nil in a marker run.
type run struct {
	pairs int
	del   bool      // a delete-marker run: each pair cancels an older add
	bySub direction // subject keys, object values
	byObj direction // object keys, subject values
	expl  bitmap
}

// bitmap is a set of positions, one bit each. A nil bitmap is empty; a
// non-nil one is sized to its run's pair count.
type bitmap []uint64

func newBitmap(n int) bitmap { return make(bitmap, (n+63)>>6) }

func (b bitmap) has(i int) bool { return b != nil && b[i>>6]&(1<<(i&63)) != 0 }

func (b bitmap) set(i int) { b[i>>6] |= 1 << (i & 63) }

// setAt records bit i of a bitmap being built for n positions,
// allocating it on the first bit set.
func (b *bitmap) setAt(i, n int) {
	if *b == nil {
		*b = newBitmap(n)
	}
	b.set(i)
}

// direction is one side of a run's index: values grouped by key, keys
// ascending, values ascending within each key's span. It takes the
// smaller of two forms, chosen when it is built from its pair count P
// and distinct key count K. CSR form holds each key once: keys[i]'s
// span is vals[off[i]:off[i+1]], costing 4 bytes per value and 8 per
// key. Pair form has off nil and one key per value, keys and vals being
// the pairs sorted by (key, value): 8 bytes per value. The builders
// pick pair form when P ≤ 2K, where it is no larger (4P ≤ 8K + 4):
// keys of degree one or two on average, as most subjects in instance
// data are. Only the builders and spanAt know the form.
type direction struct {
	keys  []rdf.ID
	off   []int32
	vals  []rdf.ID
	nkeys int // K, the distinct keys
}

// testHookPairForm, when a test stores non-nil, overrides the size rule
// for every direction built: true forces pair form, false CSR form.
// Atomic because background compactors build runs while tests set it.
var testHookPairForm atomic.Pointer[bool]

// newDirection allocates a direction for n values under k distinct
// keys, every array at its exact final length, in the smaller form.
func newDirection(n, k int) direction {
	pairs := n <= 2*k
	if f := testHookPairForm.Load(); f != nil {
		pairs = *f
	}
	d := direction{vals: make([]rdf.ID, 0, n), nkeys: k}
	if pairs {
		d.keys = make([]rdf.ID, 0, n)
	} else {
		d.keys = make([]rdf.ID, 0, k)
		d.off = make([]int32, 1, k+1)
	}
	return d
}

// endSpan closes key k's span: the values appended to vals since the
// previous endSpan. Keys must be closed in ascending order.
func (d *direction) endSpan(k rdf.ID) {
	if d.off == nil {
		for len(d.keys) < len(d.vals) {
			d.keys = append(d.keys, k)
		}
		return
	}
	d.keys = append(d.keys, k)
	d.off = append(d.off, int32(len(d.vals)))
}

// spanAt returns the span of the key at index i, which must be where a
// key starts (0, or a next that spanAt returned), and the index where
// the next key starts. In pair form it gallops to the end of the equal
// keys, so a degree-1 key costs one comparison and a hub O(log degree).
func (d *direction) spanAt(i int) (span []rdf.ID, next int) {
	if d.off != nil {
		return d.vals[d.off[i]:d.off[i+1]], i + 1
	}
	// Gallop, then bisect: keys[lo] is k; keys[hi] is not, or hi = end.
	k, lo, hi := d.keys[i], i, i+1
	for step := 1; hi < len(d.keys) && d.keys[hi] == k; step *= 2 {
		lo, hi = hi, min(hi+step, len(d.keys))
	}
	for lo+1 < hi {
		if m := int(uint(lo+hi) >> 1); d.keys[m] == k {
			lo = m
		} else {
			hi = m
		}
	}
	return d.vals[i:hi], hi
}

// start returns where the span of the key at index i begins in vals.
func (d *direction) start(i int) int {
	if d.off != nil {
		return int(d.off[i])
	}
	return i
}

// span returns key k's values (nil when k is absent): a lower-bound
// search, then spanAt. IDs are handed out densely in first-seen order,
// so a run built from one batch spans a narrow key range, and a key
// outside it — most probes of most runs — returns without a search.
func (d *direction) span(k rdf.ID) []rdf.ID {
	if len(d.keys) == 0 || k < d.keys[0] || k > d.keys[len(d.keys)-1] {
		return nil
	}
	if i, ok := slices.BinarySearch(d.keys, k); ok {
		span, _ := d.spanAt(i)
		return span
	}
	return nil
}

// find returns the position in vals of value v under key k, and whether
// the pair is present.
func (d *direction) find(k, v rdf.ID) (int, bool) {
	if len(d.keys) == 0 || k < d.keys[0] || k > d.keys[len(d.keys)-1] {
		return 0, false
	}
	i, ok := slices.BinarySearch(d.keys, k)
	if !ok {
		return 0, false
	}
	span, _ := d.spanAt(i)
	j, ok := slices.BinarySearch(span, v)
	return d.start(i) + j, ok
}

// pairKey packs a pair as one key whose integer order is (subject,
// object) order, so batches and merges sort plain integers.
func pairKey(s, o rdf.ID) uint64 { return uint64(s)<<32 | uint64(o) }

// unpack splits a pairKey back into its subject and object.
func unpack(k uint64) (s, o rdf.ID) { return rdf.ID(k >> 32), rdf.ID(k) }

// buildRun assembles an add run, or a marker run when del is set, from
// ascending pair keys with no duplicates; expl marks the explicit keys
// by index (nil for none). The object direction is built from a flipped
// copy sorted by (object, subject); total cost O(n log n) with small
// constants.
func buildRun(ks []uint64, del bool, expl bitmap) *run {
	flipped := make([]uint64, len(ks))
	for i, k := range ks {
		s, o := unpack(k)
		flipped[i] = pairKey(o, s)
	}
	slices.Sort(flipped)
	r := &run{pairs: len(ks), del: del, bySub: directionOf(ks), byObj: directionOf(flipped), expl: expl}
	if invariantsEnabled {
		checkRun(r)
	}
	return r
}

// directionOf lays out ascending pair keys as a direction keyed by
// their high halves.
func directionOf(ks []uint64) direction {
	n := 0
	for i := range ks {
		if i == 0 || ks[i]>>32 != ks[i-1]>>32 {
			n++
		}
	}
	d := newDirection(len(ks), n)
	for i, k := range ks {
		key, val := unpack(k)
		d.vals = append(d.vals, val)
		if i+1 == len(ks) || ks[i+1]>>32 != k>>32 {
			d.endSpan(key)
		}
	}
	return d
}

// objectsOf returns the run's objects of subject s, ascending (nil
// when the subject is absent). The slice aliases the run; callers must
// not mutate it.
func (r *run) objectsOf(s rdf.ID) []rdf.ID { return r.bySub.span(s) }

// subjectsOf returns the run's subjects of object o, ascending (nil when
// the object is absent). The slice aliases the run; callers must not
// mutate it.
func (r *run) subjectsOf(o rdf.ID) []rdf.ID { return r.byObj.span(o) }

// contains reports pair membership: a binary search for the subject's
// key, then one of its object span.
func (r *run) contains(s, o rdf.ID) bool {
	_, found := r.bySub.find(s, o)
	return found
}

// forEach streams every pair in (subject, object) order until f returns
// false, reporting whether it ran to completion.
func (r *run) forEach(f func(s, o rdf.ID) bool) bool {
	d := &r.bySub
	for i := 0; i < len(d.keys); {
		s := d.keys[i]
		var span []rdf.ID
		span, i = d.spanAt(i)
		for _, o := range span {
			if !f(s, o) {
				return false
			}
		}
	}
	return true
}

// mergeRange merges the adjacent runs rs of a predicate, whose older
// runs are older, into at most two: a marker run, then an add run.
// Without markers the inputs are pairwise disjoint (a pair is added again
// only after a marker), so the result is mergeRuns' linear union. With
// markers, a pair's occurrences in the range alternate add and marker,
// oldest first, and the kinds of its oldest and newest decide:
//
//   - add … add: one add, carrying the newest add's explicit bit;
//   - marker … marker: one marker;
//   - add … marker: nothing — the pair is dead before and after;
//   - marker … add: nothing, as the pair is live before and after —
//     unless the newest add's bit differs from that of the add in older
//     it replaces (a promotion or a demotion), in which case it stays a
//     marker, then an add.
//
// A range that starts at the predicate's oldest run (older empty) holds
// every marker's add, so there every marker cancels.
func mergeRange(older, rs []*run) []*run {
	if !slices.ContainsFunc(rs, func(r *run) bool { return r.del }) {
		return []*run{mergeRuns(rs)}
	}
	type occ struct {
		key  uint64
		k    int32 // the run's position in rs: occurrences sort oldest first
		expl bool
	}
	total := 0
	for _, r := range rs {
		total += r.pairs
	}
	occs := make([]occ, 0, total)
	for k, r := range rs {
		i := 0
		r.forEach(func(s, o rdf.ID) bool {
			occs = append(occs, occ{pairKey(s, o), int32(k), r.expl.has(i)})
			i++
			return true
		})
	}
	slices.SortFunc(occs, func(a, b occ) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.k, b.k)
	})
	var adds, dels []uint64
	var expl bitmap
	add := func(key uint64, explicit bool) {
		if explicit {
			expl.setAt(len(adds), len(occs))
		}
		adds = append(adds, key)
	}
	for i := 0; i < len(occs); {
		j := i + 1
		for j < len(occs) && occs[j].key == occs[i].key {
			j++
		}
		first, last := occs[i], occs[j-1]
		switch fromDel, toDel := rs[first.k].del, rs[last.k].del; {
		case !fromDel && !toDel:
			add(first.key, last.expl)
		case fromDel && toDel:
			dels = append(dels, first.key)
		case fromDel:
			s, o := unpack(first.key)
			if _, was := stateIn(older, s, o); was != last.expl {
				dels = append(dels, first.key)
				add(first.key, last.expl)
			}
		}
		i = j
	}
	var out []*run
	if len(dels) > 0 {
		out = append(out, buildRun(dels, true, nil))
	}
	if len(adds) > 0 {
		if expl != nil {
			expl = slices.Clone(expl[:(len(adds)+63)>>6])
		}
		out = append(out, buildRun(adds, false, expl))
	}
	return out
}

// mergeRuns unions pairwise disjoint add runs into one. Each is already
// sorted in both directions, so the union is two linear k-way span
// merges — no comparison sort, no pair materialisation — and, when any
// run has explicit pairs, one linear pass per such run for their bits.
func mergeRuns(rs []*run) *run {
	total := 0
	subs := make([]*direction, len(rs))
	objs := make([]*direction, len(rs))
	for i, r := range rs {
		total += r.pairs
		subs[i], objs[i] = &r.bySub, &r.byObj
	}
	out := &run{pairs: total, bySub: mergeDirection(subs, total), byObj: mergeDirection(objs, total)}
	if slices.ContainsFunc(rs, func(r *run) bool { return r.expl != nil }) {
		out.expl = mergedBits(&out.bySub, rs)
	}
	if invariantsEnabled {
		checkRun(out)
	}
	return out
}

// mergeDirection k-way merges one direction of the runs, total pairs in
// all, by repeatedly taking the minimum head key and fusing the
// (value-disjoint, sorted) spans of the runs that share it. It merges
// into CSR scratch sized by the summed key counts, which count shared
// keys twice, then lays the union out at exact length in its own form.
func mergeDirection(ds []*direction, total int) direction {
	type cursor struct {
		d *direction
		i int
	}
	cur := make([]cursor, 0, len(ds))
	maxKeys := 0
	for _, d := range ds {
		if len(d.keys) > 0 {
			maxKeys += d.nkeys
			cur = append(cur, cursor{d: d})
		}
	}
	m := direction{keys: make([]rdf.ID, 0, maxKeys), off: make([]int32, 1, maxKeys+1), vals: make([]rdf.ID, 0, total)}
	spans := make([][]rdf.ID, 0, len(cur))
	var scratch, scratch2 []rdf.ID // reused across ≥3-way key collisions
	for len(cur) > 0 {
		minK := cur[0].d.keys[cur[0].i]
		for _, c := range cur[1:] {
			if k := c.d.keys[c.i]; k < minK {
				minK = k
			}
		}
		spans = spans[:0]
		for ci := 0; ci < len(cur); ci++ {
			c := &cur[ci]
			if c.d.keys[c.i] != minK {
				continue
			}
			var span []rdf.ID
			span, c.i = c.d.spanAt(c.i)
			spans = append(spans, span)
			if c.i == len(c.d.keys) {
				cur = append(cur[:ci], cur[ci+1:]...)
				ci--
			}
		}
		switch len(spans) {
		case 1:
			m.vals = append(m.vals, spans[0]...)
		case 2:
			m.vals = appendMergedSorted(m.vals, spans[0], spans[1])
		default:
			scratch = appendMergedSorted(scratch[:0], spans[0], spans[1])
			for _, sp := range spans[2:] {
				scratch2 = appendMergedSorted(scratch2[:0], scratch, sp)
				scratch, scratch2 = scratch2, scratch
			}
			m.vals = append(m.vals, scratch...)
		}
		m.endSpan(minK)
	}
	d := newDirection(total, len(m.keys))
	for i, k := range m.keys {
		d.vals = append(d.vals, m.vals[m.off[i]:m.off[i+1]]...)
		d.endSpan(k)
	}
	return d
}

// mergedBits returns the explicit bitmap of merged, the subject
// direction mergeRuns built from rs: each run's explicit pairs, at their
// positions in merged. A run and merged both hold their keys ascending,
// so each run with a bitmap costs one pass over merged's keys; a value
// is at its own offset in a key's span that only its run contributed
// to, and found by search in one the runs share.
func mergedBits(merged *direction, rs []*run) bitmap {
	var bits bitmap
	for _, r := range rs {
		if r.expl == nil {
			continue
		}
		d, mi := &r.bySub, 0
		for i := 0; i < len(d.keys); {
			k, at := d.keys[i], d.start(i)
			var span []rdf.ID
			span, i = d.spanAt(i)
			mspan, next := merged.spanAt(mi)
			for merged.keys[mi] != k {
				mi = next
				mspan, next = merged.spanAt(mi)
			}
			mat := merged.start(mi)
			for j, v := range span {
				if !r.expl.has(at + j) {
					continue
				}
				if len(mspan) > len(span) {
					j, _ = slices.BinarySearch(mspan, v)
				}
				bits.setAt(mat+j, len(merged.vals))
			}
		}
	}
	return bits
}

// appendMergedSorted appends the two-way merge of sorted a and b to dst.
// An element present in both is appended twice, adjacently.
func appendMergedSorted[T cmp.Ordered](dst, a, b []T) []T {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst = append(dst, a[0])
			a = a[1:]
		} else {
			dst = append(dst, b[0])
			b = b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}
