// Package metrics implements the performance measures used by the two
// reproduced publications and the discrepancy analysis of the paper's
// evaluation (§IV).
//
// From the BOLD publication (paper §III-B): the wasted time of a single
// worker in one run is the sum of its idle time and its scheduling
// overhead; the average wasted time of a run is the sum of the wasted
// times of all workers divided by the number of workers.
//
// From the TSS publication (quoted in paper Figure 3a): speedup r, degree
// of scheduling overhead Θ, and degree of load imbalance Λ,
//
//	r = L·p/(X+O+W),  Θ = O·p/(X+O+W),  Λ = W·p/(X+O+W),
//
// where L is the sequential computation time and X, O, W the total time
// all PEs spend computing, scheduling and waiting. In the ideal case
// r + Θ + Λ = p.
//
// The paper's comparison measures (Figures 5c–8d) are the discrepancy
// (simulated − published) and the relative discrepancy in percent of the
// published value; positive discrepancy means the simulation runs slower.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AverageWasted computes the average wasted time of one run per the BOLD
// publication: mean over workers of (makespan − compute_w) plus the
// scheduling overhead h per operation, h·ops/p.
func AverageWasted(makespan float64, compute []float64, schedOps int64, h float64) float64 {
	p := len(compute)
	if p == 0 {
		return 0
	}
	var idle float64
	for _, c := range compute {
		idle += makespan - c
	}
	return idle/float64(p) + h*float64(schedOps)/float64(p)
}

// PerWorkerWasted returns each worker's wasted time: its idle time plus
// h times its own scheduling operations.
func PerWorkerWasted(makespan float64, compute []float64, opsPerWorker []int64, h float64) []float64 {
	out := make([]float64, len(compute))
	for w := range compute {
		out[w] = makespan - compute[w] + h*float64(opsPerWorker[w])
	}
	return out
}

// TzenNi holds the three performance measures of the TSS publication.
type TzenNi struct {
	Speedup     float64 // r
	Overhead    float64 // Θ, average number of PEs wasted scheduling
	Imbalancing float64 // Λ, average number of PEs wasted waiting
}

// TzenNiMetrics computes r, Θ and Λ from one run: seq is the sequential
// computation time L, makespan the parallel completion time, computeTotal
// the summed computing time X of all PEs and schedTotal the summed
// scheduling time O. The waiting time W is inferred as p·makespan − X − O.
func TzenNiMetrics(seq, makespan, computeTotal, schedTotal float64, p int) TzenNi {
	if makespan <= 0 || p <= 0 {
		return TzenNi{}
	}
	total := float64(p) * makespan // X + O + W by definition
	wait := total - computeTotal - schedTotal
	if wait < 0 {
		wait = 0
	}
	return TzenNi{
		Speedup:     seq * float64(p) / total,
		Overhead:    schedTotal * float64(p) / total,
		Imbalancing: wait * float64(p) / total,
	}
}

// Discrepancy returns simulated − published (paper Figures 5c–8c);
// positive values mean the present simulation runs slower.
func Discrepancy(simulated, published float64) float64 {
	return simulated - published
}

// RelativeDiscrepancy returns the discrepancy as a percentage of the
// published value (paper Figures 5d–8d). It returns NaN for a zero
// published value.
func RelativeDiscrepancy(simulated, published float64) float64 {
	if published == 0 {
		return math.NaN()
	}
	return (simulated - published) / published * 100
}

// Summary holds sample statistics of a series of per-run measurements.
type Summary struct {
	N        int
	Mean     float64
	Std      float64 // sample standard deviation (n−1)
	Min, Max float64
	Median   float64
}

// Summarize computes sample statistics over vals. It panics on an empty
// slice — callers always have at least one run. A streaming Accumulator
// fed the same values in the same order reproduces N, Mean, Min and Max
// bit-exactly; Std only to floating-point reassociation error (Welford
// vs the two-pass formula below), which is why bit-reproducible paths
// summarize buffered values and reserve the Accumulator for unbounded
// streams. The median is Quantile(vals, 0.5): a selection on a copy, in
// expected O(n), with the bits a full sort gives. vals is not modified,
// so summarizing the same slice twice sums it in the same order and
// gives the same bits.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		panic("metrics: Summarize of empty slice")
	}
	s := Summary{N: len(vals), Min: vals[0], Max: vals[0]}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	// Two-pass sum of squared deviations: the historical buffered
	// formula, preserved bit for bit (Accumulator's online Welford M2 is
	// numerically equivalent but not bit-identical).
	var ss float64
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	if len(vals) > 1 {
		s.Std = math.Sqrt(ss / float64(len(vals)-1))
	}
	s.Median = Quantile(vals, 0.5)
	return s
}

// Mean returns the arithmetic mean of vals (0 for an empty slice).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of vals using linear
// interpolation between order statistics: with pos = q·(n−1) and
// lo = ⌊pos⌋, it returns a·(1−frac) + b·frac for the order statistics
// a = x(lo) and b = x(lo+1) and frac = pos − lo. It returns NaN for a
// NaN q. vals is not modified.
//
// Quantile finds a and b by selection on a copy of vals (selectNth),
// in expected O(n) time, instead of sorting the copy, and returns the
// bits a sort gives for every input. Without a NaN or a −0 in the copy,
// values that compare equal have equal bits, so any correct selection
// leaves sorting's bits at lo and the same values above it. A copy
// holding either is sorted, as before: sort.Float64s puts NaNs first,
// which < cannot express, and where a −0 lands among equal +0s depends
// on the algorithm.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		panic("metrics: Quantile of empty slice")
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	x := make([]float64, len(vals))
	sortOnly := false
	for i, v := range vals {
		x[i] = v
		if v != v || v == 0 && math.Signbit(v) {
			sortOnly = true
		}
	}
	n := len(x)
	lo, frac := 0, 0.0
	switch {
	case q <= 0:
	case q >= 1:
		lo = n - 1
	default:
		pos := q * float64(n-1)
		lo = int(math.Floor(pos))
		frac = pos - float64(lo)
	}
	if sortOnly {
		sort.Float64s(x)
	} else {
		selectNth(x, lo)
	}
	a := x[lo]
	if q <= 0 || q >= 1 || lo+1 >= n {
		return a
	}
	// x[lo+1:] holds the values above position lo: after a sort in
	// order, after selectNth in no particular order.
	b := x[lo+1]
	if !sortOnly {
		for _, v := range x[lo+2:] {
			if v < b {
				b = v
			}
		}
	}
	return a*(1-frac) + b*frac
}

// TrimAbove returns the values ≤ threshold and the count of excluded
// values. The paper's Figure 9 analysis excludes the 15 runs above 400 s
// before re-computing the FAC mean.
func TrimAbove(vals []float64, threshold float64) (kept []float64, excluded int) {
	kept = make([]float64, 0, len(vals))
	for _, v := range vals {
		if v > threshold {
			excluded++
			continue
		}
		kept = append(kept, v)
	}
	return kept, excluded
}

// CoV returns the coefficient of variation (std/mean) of vals, the
// load-imbalance indicator used across the DLS literature. It returns 0
// when the mean is 0.
func CoV(vals []float64) float64 {
	s := Summarize(vals)
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// String renders a Summary compactly for logs and tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g med=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}
