package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs. It returns 0 for an
// empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so the spread this program reports matches the one a reader computes
// from its printed values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// tailLadder lists the percentiles tail considers, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailStat is the highest percentile of a sample that at least
// minBeyond samples lie beyond, with the counts a reader needs to judge
// it.
type tailStat struct {
	Percentile float64 // e.g. 99
	Value      float64 // the nearest-rank percentile value
	Samples    int     // sample count
	Beyond     int     // samples strictly above the percentile's rank
}

// minBeyond is how many samples must lie beyond a reported percentile.
// A p99 from fewer than 1000 samples rests on a handful of values and
// is left unreported rather than extrapolated.
const minBeyond = 10

// tail returns the highest percentile of xs in tailLadder with at least
// minBeyond samples beyond its nearest rank. ok is false when even the
// median has fewer than minBeyond samples above it.
func tail(xs []float64) (t tailStat, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, q := range tailLadder {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if rank < 1 || n-rank < minBeyond {
			break
		}
		t, ok = tailStat{Percentile: q, Value: s[rank-1], Samples: n, Beyond: n - rank}, true
	}
	return t, ok
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
