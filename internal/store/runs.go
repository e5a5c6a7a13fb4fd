package store

import (
	"cmp"
	"slices"

	"repro/internal/rdf"
)

// run is an immutable, sorted segment of one partition's pairs — the
// LSM-style counterpart to the partition's mutable map overlay. A run is
// never modified after buildRun returns; partitions replace their run
// slices wholesale under the partition lock, so a reader that captured
// the slice header may keep reading it without any lock.
//
// The layout is a compressed-sparse-row index in both directions:
// subject→objects for (p, s, ?) probes and object→subjects for
// (p, ?, o) probes. The key slices are the index: each direction finds
// a span by binary search over its strictly ascending keys and then
// yields a contiguous ascending slice — the shape the galloping join
// intersection and the verbatim checkpoint stream want. A run is six
// plain arrays and a pair count; its four ID arrays hold 32-bit packed
// IDs (rdf.Pack32), which sort as the IDs do, so searches, merges and
// scans work in packed space and readers decode into the caller's
// buffer. Each direction costs 4 bytes per value and 8 per key (the key
// and its offset). Probes treat an ID without a packed form as absent.
type run struct {
	pairs int

	// Subject direction: subs holds the distinct subjects in ascending
	// order; objs holds the objects grouped by subject (ascending within
	// each group); subOff[i] is the objs offset of subs[i]'s span, with
	// a final sentinel entry, so spans are subOff[i]:subOff[i+1].
	subs   []uint32
	subOff []int32
	objs   []uint32

	// Object direction: the mirror image, sorted by (object, subject).
	objsD     []uint32
	objOff    []int32
	subsByObj []uint32
}

func comparePairs(a, b pair) int {
	if c := cmp.Compare(a.s, b.s); c != 0 {
		return c
	}
	return cmp.Compare(a.o, b.o)
}

func sortPairs(ps []pair) { slices.SortFunc(ps, comparePairs) }

// buildRun assembles a run from pairs sorted by (subject, object) with no
// duplicates. The object-direction index re-sorts a copy by (object,
// subject); total cost O(n log n) with small constants, always paid off
// the partition lock by the compactor.
func buildRun(ps []pair) *run {
	r := &run{pairs: len(ps)}
	r.objs = make([]uint32, len(ps))
	for i, pr := range ps {
		if i == 0 || pr.s != ps[i-1].s {
			r.subs = append(r.subs, rdf.Pack32(pr.s))
			r.subOff = append(r.subOff, int32(i))
		}
		r.objs[i] = rdf.Pack32(pr.o)
	}
	r.subOff = append(r.subOff, int32(len(ps)))

	bo := make([]pair, len(ps))
	copy(bo, ps)
	slices.SortFunc(bo, func(a, b pair) int {
		if c := cmp.Compare(a.o, b.o); c != 0 {
			return c
		}
		return cmp.Compare(a.s, b.s)
	})
	r.subsByObj = make([]uint32, len(bo))
	for i, pr := range bo {
		if i == 0 || pr.o != bo[i-1].o {
			r.objsD = append(r.objsD, rdf.Pack32(pr.o))
			r.objOff = append(r.objOff, int32(i))
		}
		r.subsByObj[i] = rdf.Pack32(pr.s)
	}
	r.objOff = append(r.objOff, int32(len(bo)))
	if invariantsEnabled {
		checkRun(r)
	}
	return r
}

// buildRunFromOverlay assembles a run straight from a partition's
// overlay maps: so and os already are the two CSR directions keyed the
// right way, so the cost is one key sort plus per-span sorts per
// direction — much cheaper than materialising and comparison-sorting n
// pairs twice, and this runs under the partition write lock.
func buildRunFromOverlay(so, os map[rdf.ID]idSet, n int) *run {
	r := &run{pairs: n}
	r.subs, r.subOff, r.objs = csrFromMap(so, n)
	r.objsD, r.objOff, r.subsByObj = csrFromMap(os, n)
	if invariantsEnabled {
		checkRun(r)
	}
	return r
}

// csrFromMap lays one overlay direction out as a sorted CSR index.
func csrFromMap(m map[rdf.ID]idSet, n int) (keys []uint32, off []int32, vals []uint32) {
	keys = make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, rdf.Pack32(k))
	}
	slices.Sort(keys)
	off = make([]int32, 0, len(keys)+1)
	vals = make([]uint32, 0, n)
	for _, k := range keys {
		off = append(off, int32(len(vals)))
		start := len(vals)
		for v := range m[rdf.Unpack32(k)] {
			vals = append(vals, rdf.Pack32(v))
		}
		slices.Sort(vals[start:])
	}
	off = append(off, int32(len(vals)))
	return keys, off, vals
}

// objectsOf returns the run's packed objects of subject s, ascending
// (nil when the subject is absent). The slice aliases the run; callers
// must not mutate it. IDs are handed out densely in first-seen order,
// so a subject newer than the run sits above its last key: that case —
// every fresh insert probes every run — returns without a search.
func (r *run) objectsOf(s rdf.ID) []uint32 {
	k := rdf.Pack32(s)
	if len(r.subs) == 0 || k > r.subs[len(r.subs)-1] || !rdf.Fits32(s) {
		return nil
	}
	i, ok := slices.BinarySearch(r.subs, k)
	if !ok {
		return nil
	}
	return r.objs[r.subOff[i]:r.subOff[i+1]]
}

// objectsFrom is objectsOf for a caller visiting packed subject keys in
// ascending order: *i is an index into subs no further than key k, and
// is advanced past it, so a sweep over a key range scans it once
// instead of binary searching per subject.
func (r *run) objectsFrom(i *int, k uint32) []uint32 {
	for *i < len(r.subs) && r.subs[*i] < k {
		*i++
	}
	if *i == len(r.subs) || r.subs[*i] != k {
		return nil
	}
	*i++
	return r.objs[r.subOff[*i-1]:r.subOff[*i]]
}

// subjectsOf returns the run's packed subjects of object o, ascending
// (nil when the object is absent). The slice aliases the run; callers
// must not mutate it.
func (r *run) subjectsOf(o rdf.ID) []uint32 {
	if !rdf.Fits32(o) {
		return nil
	}
	i, ok := slices.BinarySearch(r.objsD, rdf.Pack32(o))
	if !ok {
		return nil
	}
	return r.subsByObj[r.objOff[i]:r.objOff[i+1]]
}

// contains reports pair membership: a binary search for the subject's
// key, then one of its object span.
func (r *run) contains(s, o rdf.ID) bool {
	_, found := slices.BinarySearch(r.objectsOf(s), rdf.Pack32(o))
	return found && rdf.Fits32(o)
}

// appendUnpacked appends the IDs of the packed span to dst, in order.
func appendUnpacked(dst []rdf.ID, span []uint32) []rdf.ID {
	dst = slices.Grow(dst, len(span))
	for _, x := range span {
		dst = append(dst, rdf.Unpack32(x))
	}
	return dst
}

// forEach streams every pair in (subject, object) order until f returns
// false, reporting whether it ran to completion.
func (r *run) forEach(f func(s, o rdf.ID) bool) bool {
	for i, k := range r.subs {
		s := rdf.Unpack32(k)
		for _, o := range r.objs[r.subOff[i]:r.subOff[i+1]] {
			if !f(s, rdf.Unpack32(o)) {
				return false
			}
		}
	}
	return true
}

// mergeRuns unions runs into one. The inputs are pairwise disjoint (the
// partition invariant: a pair lives in at most one run or the overlay)
// and each is already sorted in both directions, so the union is two
// linear k-way span merges — no comparison sort, no pair
// materialisation. Tombstones are deliberately not applied here —
// merges must preserve pair membership exactly so they can run off the
// partition lock while concurrent adds resurrect and removes tombstone
// pairs.
func mergeRuns(rs []*run) *run {
	total := 0
	for _, r := range rs {
		total += r.pairs
	}
	out := &run{pairs: total}
	out.subs, out.subOff, out.objs = mergeDirection(rs, total, false)
	out.objsD, out.objOff, out.subsByObj = mergeDirection(rs, total, true)
	if invariantsEnabled {
		checkRun(out)
	}
	return out
}

// mergeDirection k-way merges one CSR direction of the runs: the keyed
// spans stream in ascending key order within every run, so the merged
// index is built by repeatedly taking the minimum head key and fusing
// the (value-disjoint, sorted) spans of the runs that share it.
func mergeDirection(rs []*run, total int, byObject bool) (keys []uint32, off []int32, vals []uint32) {
	type cursor struct {
		keys []uint32
		off  []int32
		vals []uint32
		i    int
	}
	cur := make([]cursor, 0, len(rs))
	maxKeys := 0
	for _, r := range rs {
		c := cursor{keys: r.subs, off: r.subOff, vals: r.objs}
		if byObject {
			c = cursor{keys: r.objsD, off: r.objOff, vals: r.subsByObj}
		}
		if len(c.keys) > 0 {
			maxKeys += len(c.keys)
			cur = append(cur, c)
		}
	}
	// maxKeys double-counts keys shared between runs — an upper bound,
	// paid once, so the append loops below never reallocate.
	keys = make([]uint32, 0, maxKeys)
	off = make([]int32, 0, maxKeys+1)
	vals = make([]uint32, 0, total)
	spans := make([][]uint32, 0, len(cur))
	var scratch, scratch2 []uint32 // reused across ≥3-way key collisions
	for len(cur) > 0 {
		minK := cur[0].keys[cur[0].i]
		for _, c := range cur[1:] {
			if k := c.keys[c.i]; k < minK {
				minK = k
			}
		}
		keys = append(keys, minK)
		off = append(off, int32(len(vals)))
		spans = spans[:0]
		for ci := 0; ci < len(cur); ci++ {
			c := &cur[ci]
			if c.keys[c.i] != minK {
				continue
			}
			spans = append(spans, c.vals[c.off[c.i]:c.off[c.i+1]])
			c.i++
			if c.i == len(c.keys) {
				cur = append(cur[:ci], cur[ci+1:]...)
				ci--
			}
		}
		switch len(spans) {
		case 1:
			vals = append(vals, spans[0]...)
		case 2:
			vals = appendMergedSorted(vals, spans[0], spans[1])
		default:
			scratch = appendMergedSorted(scratch[:0], spans[0], spans[1])
			for _, sp := range spans[2:] {
				scratch2 = appendMergedSorted(scratch2[:0], scratch, sp)
				scratch, scratch2 = scratch2, scratch
			}
			vals = append(vals, scratch...)
		}
	}
	off = append(off, int32(len(vals)))
	return keys, off, vals
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
