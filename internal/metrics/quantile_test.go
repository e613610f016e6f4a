package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// sortQuantile is Quantile as it was before selection: sort a copy,
// then interpolate (sortedQuantile). Quantile must return its bits for
// every input and every q but NaN, on which it panicked.
func sortQuantile(vals []float64, q float64) float64 {
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	return sortedQuantile(sorted, q)
}

func sortedQuantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

var quantileQs = []float64{0, 1e-9, 0.25, 0.5, 0.75, 1 - 1e-9, 1}

// quantileShapes are the inputs the differential tests sweep: orders a
// quickselect treats differently (presorted, reversed, organ pipe,
// equal and heavily duplicated values), then the values selection must
// carry with their bits (±Inf, subnormals, +0) and those that send
// Quantile to the sort (−0, NaN).
var quantileShapes = []struct {
	name string
	make func(n int) []float64
}{
	{"random", func(n int) []float64 { return samples(n, 11) }},
	{"sorted", func(n int) []float64 {
		v := samples(n, 12)
		sort.Float64s(v)
		return v
	}},
	{"reversed", func(n int) []float64 {
		v := samples(n, 13)
		sort.Sort(sort.Reverse(sort.Float64Slice(v)))
		return v
	}},
	{"all-equal", func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 2.5
		}
		return v
	}},
	{"heavy-duplicate", func(n int) []float64 {
		v := samples(n, 14)
		for i := range v {
			v[i] = math.Floor(v[i])
		}
		return v
	}},
	{"organ-pipe", func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(min(i, n-1-i))
		}
		return v
	}},
	{"inf-subnormal-zero", func(n int) []float64 {
		v := samples(n, 15)
		special := []float64{math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0}
		for i := 0; i < n; i += 3 {
			v[i] = special[i%len(special)]
		}
		return v
	}},
	{"signed-zeros", func(n int) []float64 {
		v := samples(n, 16)
		for i := 0; i < n; i += 2 {
			v[i] = math.Copysign(0, float64(i%4-1))
		}
		return v
	}},
	{"nan", func(n int) []float64 {
		v := samples(n, 17)
		for i := 0; i < n; i += 5 {
			v[i] = math.NaN()
		}
		return v
	}},
}

// checkQuantile compares Quantile with the sort reference, bit for bit,
// for every q in quantileQs, and checks vals is left as it was.
func checkQuantile(t *testing.T, name string, vals []float64) {
	t.Helper()
	orig := append([]float64(nil), vals...)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range quantileQs {
		got, want := Quantile(vals, q), sortedQuantile(sorted, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s n=%d q=%g: Quantile = %v (%#x), sort gives %v (%#x)",
				name, len(vals), q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s n=%d: Quantile modified vals[%d]", name, len(vals), i)
		}
	}
}

// TestQuantileMatchesSort holds Quantile to the bits of sorting a copy
// for every input length up to 2 000, and at 20 000, on every shape.
func TestQuantileMatchesSort(t *testing.T) {
	for _, s := range quantileShapes {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for n := 1; n <= 2000; n++ {
				checkQuantile(t, s.name, s.make(n))
			}
			checkQuantile(t, s.name, s.make(20000))
		})
	}
}

// medianOfThreeKiller returns n distinct values on which every
// partition of selectNth takes the second-smallest value of its range
// as the pivot, so each partition sets aside two values and selecting
// an order statistic past the first hundred or so exhausts the
// partition budget. It replays partition on item ids: in the range
// [lo, n), the item at lo takes the next rank and the item in the
// middle, the pivot, the one after; partition leaves those two at lo
// and lo+1, and moves the item from lo+1 to the middle. Every other
// item is compared only with ranked ones, so the items left over take
// the ranks above them in any order.
func medianOfThreeKiller(n int) []float64 {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	vals := make([]float64, n)
	ranked := make([]bool, n)
	next := 0.0
	for lo := 0; n-lo > 16; lo += 2 {
		m := lo + (n-lo)/2
		vals[ids[lo]], vals[ids[m]] = next, next+1
		ranked[ids[lo]], ranked[ids[m]] = true, true
		next += 2
		ids[m] = ids[lo+1]
	}
	for id, r := range ranked {
		if !r {
			vals[id] = next
			next++
		}
	}
	return vals
}

// TestQuantileMedianOfThreeKiller checks that the killer reaches
// selectNth's sorting fallback, which random input of the same length
// does not, and that Quantile still returns sorting's bits on it.
func TestQuantileMedianOfThreeKiller(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		k := (n - 1) / 2
		if !selectNth(medianOfThreeKiller(n), k) {
			t.Errorf("n=%d: the killer did not reach the sorting fallback", n)
		}
		if selectNth(samples(n, 18), k) {
			t.Errorf("n=%d: random input reached the sorting fallback", n)
		}
		checkQuantile(t, "killer", medianOfThreeKiller(n))
	}
}

func TestQuantileNaNQ(t *testing.T) {
	for _, vals := range [][]float64{{1, 2, 3}, {math.NaN(), 1}, {7}} {
		if got := Quantile(vals, math.NaN()); !math.IsNaN(got) {
			t.Errorf("Quantile(%v, NaN) = %v, want NaN", vals, got)
		}
	}
}

// FuzzQuantile decodes its bytes as little-endian float64 bit patterns
// and holds Quantile at q to the bits of the sort reference.
func FuzzQuantile(f *testing.F) {
	enc := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(3, 1, 2), 0.5)
	f.Add(enc(math.Copysign(0, -1), 0, 0, math.Copysign(0, -1)), 0.5)
	f.Add(enc(math.NaN(), 1, math.Inf(-1), math.Inf(1)), 0.25)
	f.Add(enc(math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64), 0.75)
	f.Add(enc(samples(40, 19)...), 1-1e-9)
	f.Add(enc(medianOfThreeKiller(64)...), 0.5)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		vals := make([]float64, len(data)/8)
		if len(vals) == 0 {
			return
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		orig := append([]float64(nil), vals...)
		got := Quantile(vals, q)
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("Quantile modified vals[%d]", i)
			}
		}
		if math.IsNaN(q) {
			if !math.IsNaN(got) {
				t.Fatalf("Quantile(vals, NaN) = %v, want NaN", got)
			}
			return
		}
		if want := sortQuantile(vals, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("q=%g: Quantile = %v (%#x), sort gives %v (%#x)",
				q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

var summarySink Summary

// BenchmarkSummarize summarizes n exponential samples, as the engine
// summarizes each metric of a point: one allocation per call, the copy
// Quantile selects on.
func BenchmarkSummarize(b *testing.B) {
	for _, n := range []int{100, 1000, 20000} {
		vals := samples(n, 20)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				summarySink = Summarize(vals)
			}
		})
	}
}
