package main

import (
	"sort"
	"time"
)

// samples is one metric's raw observations in milliseconds (or whatever
// unit the caller converts to): every percentile the benchmark reports is
// taken over the full set, never over a histogram.
type samples []float64

func (s *samples) add(d time.Duration, per time.Duration) {
	*s = append(*s, float64(d)/float64(per))
}

// percentile returns the p-th percentile (0 < p ≤ 100) by the
// nearest-rank method; 0 for an empty set.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	rank := int(float64(len(c))*p/100+0.999999) - 1
	rank = min(max(rank, 0), len(c)-1)
	return c[rank]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median is the plain median: the mean of the middle two for an even count.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles computed the way Python's
// statistics.quantiles(values, n=4) does (exclusive method) — the rule the
// PR driver applies to ten runs of each end-to-end metric.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return c[j-1] + frac*(c[j]-c[j-1])
	}
	med := median(c)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
