package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAverageWasted(t *testing.T) {
	// 2 workers, makespan 10, compute 8 and 6 → idle 2 and 4 → mean 3.
	// 10 scheduling ops at h=0.5 → +0.5·10/2 = 2.5. Total 5.5.
	got := AverageWasted(10, []float64{8, 6}, 10, 0.5)
	if math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("AverageWasted = %v, want 5.5", got)
	}
}

func TestAverageWastedSSMagnitude(t *testing.T) {
	// The paper quotes 1.3e5 s for the n=524288, p=2 experiment (§IV-B4).
	// Under the per-worker definition that is h·n/p = 0.5·524288/2 plus
	// idle. Verify the overhead term alone reproduces that magnitude.
	got := AverageWasted(262144, []float64{262144, 262144}, 524288, 0.5)
	if math.Abs(got-131072) > 1e-6 {
		t.Fatalf("SS overhead term = %v, want 131072", got)
	}
}

func TestAverageWastedEmpty(t *testing.T) {
	if got := AverageWasted(1, nil, 5, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestPerWorkerWasted(t *testing.T) {
	got := PerWorkerWasted(10, []float64{8, 6}, []int64{4, 6}, 0.5)
	want := []float64{2 + 2, 4 + 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("PerWorkerWasted = %v, want %v", got, want)
		}
	}
	// Consistency: mean of per-worker wasted equals AverageWasted.
	avg := AverageWasted(10, []float64{8, 6}, 10, 0.5)
	if math.Abs((got[0]+got[1])/2-avg) > 1e-12 {
		t.Fatalf("per-worker mean %v != average %v", (got[0]+got[1])/2, avg)
	}
}

func TestTzenNiIdealCase(t *testing.T) {
	// Perfect execution: X = L, O = W = 0 → r = p, Θ = Λ = 0.
	m := TzenNiMetrics(100, 25, 100, 0, 4)
	if math.Abs(m.Speedup-4) > 1e-12 || m.Overhead != 0 || m.Imbalancing != 0 {
		t.Fatalf("ideal = %+v", m)
	}
}

func TestTzenNiIdentity(t *testing.T) {
	// r + Θ + Λ ≤ p always; equality when X = L.
	f := func(a, b, c uint8) bool {
		p := int(a)%16 + 1
		seq := float64(b) + 1
		sched := float64(c) / 10
		makespan := (seq + sched) / float64(p) * 1.3 // some inefficiency
		compute := seq                               // X = L
		m := TzenNiMetrics(seq, makespan, compute, sched, p)
		sum := m.Speedup + m.Overhead + m.Imbalancing
		return sum <= float64(p)+1e-9 && math.Abs(sum-float64(p)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTzenNiDegenerate(t *testing.T) {
	if m := TzenNiMetrics(1, 0, 1, 0, 4); m != (TzenNi{}) {
		t.Fatalf("zero makespan = %+v", m)
	}
}

func TestDiscrepancySigns(t *testing.T) {
	if d := Discrepancy(12, 10); d != 2 {
		t.Fatalf("Discrepancy = %v", d)
	}
	if d := RelativeDiscrepancy(12, 10); math.Abs(d-20) > 1e-12 {
		t.Fatalf("RelativeDiscrepancy = %v", d)
	}
	if d := RelativeDiscrepancy(8, 10); math.Abs(d+20) > 1e-12 {
		t.Fatalf("RelativeDiscrepancy = %v", d)
	}
	if !math.IsNaN(RelativeDiscrepancy(1, 0)) {
		t.Fatal("RelativeDiscrepancy(x, 0) should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Fatalf("median = %v", s.Median)
	}
	// Sample std of {1,2,3,4} = sqrt(5/3).
	if math.Abs(s.Std-math.Sqrt(5.0/3.0)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Std != 0 || s.Mean != 7 || s.Median != 7 {
		t.Fatalf("single = %+v", s)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	if q := Quantile(vals, 0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(vals, 1); q != 50 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(vals, 0.5); q != 30 {
		t.Fatalf("q0.5 = %v", q)
	}
	if q := Quantile(vals, 0.25); q != 20 {
		t.Fatalf("q0.25 = %v", q)
	}
	// Input must not be mutated.
	if vals[0] != 10 || vals[4] != 50 {
		t.Fatal("Quantile mutated input")
	}
}

func TestTrimAbove(t *testing.T) {
	// Figure 9 scenario: excluding values > 400 changes the mean.
	vals := []float64{10, 20, 500, 30, 700}
	kept, excluded := TrimAbove(vals, 400)
	if excluded != 2 || len(kept) != 3 {
		t.Fatalf("TrimAbove: kept %v excluded %d", kept, excluded)
	}
	if m := Mean(kept); m != 20 {
		t.Fatalf("trimmed mean = %v", m)
	}
}

func TestCoV(t *testing.T) {
	if c := CoV([]float64{5, 5, 5}); c != 0 {
		t.Fatalf("CoV constant = %v", c)
	}
	if c := CoV([]float64{0, 0}); c != 0 {
		t.Fatalf("CoV zero-mean = %v", c)
	}
}

func TestMeanEmpty(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}

// TestWastedNonNegativeProperty: wasted time can never be negative when
// compute times are bounded by the makespan.
func TestWastedNonNegativeProperty(t *testing.T) {
	f := func(raw []uint8, ops uint8) bool {
		if len(raw) == 0 {
			return true
		}
		makespan := 0.0
		compute := make([]float64, len(raw))
		for i, r := range raw {
			compute[i] = float64(r)
			if compute[i] > makespan {
				makespan = compute[i]
			}
		}
		w := AverageWasted(makespan, compute, int64(ops), 0.5)
		return w >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
