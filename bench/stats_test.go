package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// TestQuartilesMatchPython pins the values Python's
// statistics.quantiles(xs, n=4) gives, so the spread this program
// reports is the one a reader computes from its printed values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 0, 7, 1, 4}, 0.5, 8.5},
	} {
		q1, q3, ok := quartiles(tc.in)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.in, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		q      float64
		value  float64
		beyond int
	}{
		{1000, true, 99, 990, 10},
		{999, true, 90, 900, 99}, // p99 would have only 9 beyond it
		{20, true, 50, 10, 10},
		{19, false, 0, 0, 0}, // too few samples: nothing is reported
		{0, false, 0, 0, 0},
	} {
		got, ok := tail(seq(tc.n))
		if ok != tc.ok {
			t.Errorf("n=%d: ok = %v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Percentile != tc.q || got.Value != tc.value || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: tail = %+v, want p%v = %v with %d beyond", tc.n, got, tc.q, tc.value, tc.beyond)
		}
	}
}
