package metrics

import (
	"math/bits"
	"sort"
)

// selectNth reorders x so that x[k] holds the value sorting x would put
// there, no value before it is greater and no value after it is
// smaller. x must hold no NaN. It is an introselect: quickselect with
// median-of-three pivots, insertion sort once the range holding k is at
// most 16 values long, and sort.Float64s on that range once it has
// taken 2·⌊log2 n⌋+2 partitions, so adversarial input costs
// O(n log n) instead of O(n²). It reports whether it fell back to
// sorting.
func selectNth(x []float64, k int) (sorted bool) {
	lo, hi := 0, len(x)
	for budget := 2 * bits.Len(uint(len(x))); hi-lo > 16; budget-- {
		if budget == 0 {
			sort.Float64s(x[lo:hi])
			return true
		}
		p := lo + partition(x[lo:hi])
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return false
		}
	}
	insertionSort(x[lo:hi])
	return false
}

// partition, given at least three values, moves the median of x's
// first, middle and last values to its sorted place p and returns p: no
// value in x[:p] is greater and none in x[p+1:] smaller. Both scans
// stop at values equal to the pivot, so runs of equal values split
// evenly instead of all landing on one side.
func partition(x []float64) int {
	m, h := len(x)/2, len(x)-1
	if x[m] < x[0] {
		x[0], x[m] = x[m], x[0]
	}
	if x[h] < x[m] {
		x[m], x[h] = x[h], x[m]
		if x[m] < x[0] {
			x[0], x[m] = x[m], x[0]
		}
	}
	// x[0] ≤ x[m] ≤ x[h]. The median becomes the pivot at x[0], which
	// stops the downward scan; x[h] stops the upward one.
	x[0], x[m] = x[m], x[0]
	pivot := x[0]
	i, j := 0, len(x)
	for {
		for i++; x[i] < pivot; i++ {
		}
		for j--; pivot < x[j]; j-- {
		}
		if i >= j {
			break
		}
		x[i], x[j] = x[j], x[i]
	}
	x[0], x[j] = x[j], x[0]
	return j
}

// insertionSort sorts x, which is short.
func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
