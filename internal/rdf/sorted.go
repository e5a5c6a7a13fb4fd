package rdf

// Sorted ID-slice primitives behind the query executor's join
// intersection. All functions require their inputs ascending and
// duplicate-free — exactly what the store's sorted-run probes return.

// gallopFrom returns the smallest index i >= lo with b[i] >= x, using
// exponential (galloping) probing from lo followed by a binary search of
// the overshot range. Cost is O(log d) where d is the distance advanced,
// so an intersection of a small list against a huge one pays for the
// small list, not the huge one.
func gallopFrom(b []ID, lo int, x ID) int {
	if lo >= len(b) || b[lo] >= x {
		return lo
	}
	// b[lo] < x: gallop until the step overshoots.
	i, step := lo, 1
	for i+step < len(b) && b[i+step] < x {
		i += step
		step <<= 1
	}
	hi := i + step
	if hi > len(b) {
		hi = len(b)
	}
	// Invariant: b[i] < x, and (hi == len(b) or b[hi] >= x). Binary
	// search (i, hi] for the boundary.
	lo = i + 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectSortedAppend appends a ∩ b to dst and returns the extended
// slice. a and b must be ascending and duplicate-free; the appended
// segment is too. The smaller list drives, galloping through the larger,
// so the cost is O(min·log(max/min)) instead of O(min + max).
func IntersectSortedAppend(dst, a, b []ID) []ID {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for _, x := range a {
		j = gallopFrom(b, j, x)
		if j >= len(b) {
			break
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}
