package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestConstant(t *testing.T) {
	w := NewConstant(110e-6)
	if got := w.Time(42, nil); got != 110e-6 {
		t.Fatalf("Time = %v, want 110e-6", got)
	}
	if got := w.ChunkTime(0, 1000, nil); math.Abs(got-0.11) > 1e-12 {
		t.Fatalf("ChunkTime = %v, want 0.11", got)
	}
	if w.Mean() != 110e-6 || w.Std() != 0 {
		t.Fatalf("moments wrong: %v %v", w.Mean(), w.Std())
	}
}

func TestLinearIncreasing(t *testing.T) {
	w := NewIncreasing(1, 10, 10)
	if got := w.Time(0, nil); got != 1 {
		t.Fatalf("first task = %v, want 1", got)
	}
	if got := w.Time(9, nil); math.Abs(got-10) > 1e-12 {
		t.Fatalf("last task = %v, want 10", got)
	}
	// Sum 1..10 = 55.
	if got := w.ChunkTime(0, 10, nil); math.Abs(got-55) > 1e-9 {
		t.Fatalf("ChunkTime = %v, want 55", got)
	}
	if got := w.Mean(); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5.5", got)
	}
}

func TestLinearDecreasing(t *testing.T) {
	w := NewDecreasing(10, 1, 10)
	if got := w.Time(0, nil); got != 10 {
		t.Fatalf("first task = %v, want 10", got)
	}
	if got := w.Time(9, nil); math.Abs(got-1) > 1e-12 {
		t.Fatalf("last task = %v, want 1", got)
	}
	if w.Name() != "decreasing" {
		t.Fatalf("Name = %q", w.Name())
	}
}

// TestLinearChunkMatchesTaskSum checks the closed-form chunk sum against
// explicit summation for arbitrary sub-ranges.
func TestLinearChunkMatchesTaskSum(t *testing.T) {
	w := NewIncreasing(0.5, 7.25, 1000)
	f := func(a, b uint16) bool {
		start := int64(a) % 900
		count := int64(b)%100 + 1
		var want float64
		for i := int64(0); i < count; i++ {
			want += w.Time(start+i, nil)
		}
		got := w.ChunkTime(start, count, nil)
		return math.Abs(got-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialChunkTimeMoments(t *testing.T) {
	w := NewExponential(1)
	r := rng.New(77)
	const chunk = 100
	const samples = 20000
	var sum, sum2 float64
	for i := 0; i < samples; i++ {
		v := w.ChunkTime(0, chunk, r)
		sum += v
		sum2 += v * v
	}
	mean := sum / samples
	variance := sum2/samples - mean*mean
	if math.Abs(mean-chunk) > 0.05*chunk {
		t.Errorf("chunk mean = %v, want ~%v", mean, chunk)
	}
	if math.Abs(variance-chunk) > 0.15*chunk {
		t.Errorf("chunk variance = %v, want ~%v", variance, chunk)
	}
}

// TestExponentialSmallChunkExact checks the below-cutoff path sums
// individual exponentials (same stream consumption as Time calls).
func TestExponentialSmallChunkExact(t *testing.T) {
	w := NewExponential(2)
	a, b := rng.New(5), rng.New(5)
	got := w.ChunkTime(0, 3, a)
	want := w.Time(0, b) + w.Time(1, b) + w.Time(2, b)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("small chunk = %v, want %v", got, want)
	}
}

func TestExponentialZeroChunk(t *testing.T) {
	if v := NewExponential(1).ChunkTime(0, 0, rng.New(1)); v != 0 {
		t.Fatalf("zero chunk = %v", v)
	}
}

func TestUniformRandomMoments(t *testing.T) {
	w := NewUniformRandom(1, 3)
	if math.Abs(w.Mean()-2) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	want := 2 / math.Sqrt(12)
	if math.Abs(w.Std()-want) > 1e-12 {
		t.Fatalf("std = %v, want %v", w.Std(), want)
	}
}

func TestNormalClamping(t *testing.T) {
	w := NewNormal(0.1, 5) // most mass below 0 -> heavy clamping
	r := rng.New(3)
	for i := 0; i < 10000; i++ {
		if v := w.Time(0, r); v < 0 {
			t.Fatalf("normal produced negative time: %v", v)
		}
	}
}

func TestGammaAdditivity(t *testing.T) {
	w := NewGamma(2, 0.5) // mean 1
	r := rng.New(11)
	const chunk = 50
	var sum float64
	const samples = 20000
	for i := 0; i < samples; i++ {
		sum += w.ChunkTime(0, chunk, r)
	}
	mean := sum / samples
	if math.Abs(mean-chunk*w.Mean()) > 0.05*chunk*w.Mean() {
		t.Errorf("gamma chunk mean = %v, want ~%v", mean, chunk*w.Mean())
	}
}

func TestBimodalMoments(t *testing.T) {
	w := NewBimodal(1, 10, 0.25)
	wantMean := 0.25*10 + 0.75*1
	if math.Abs(w.Mean()-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", w.Mean(), wantMean)
	}
	r := rng.New(9)
	var sum float64
	const samples = 100000
	for i := 0; i < samples; i++ {
		sum += w.Time(0, r)
	}
	if got := sum / samples; math.Abs(got-wantMean) > 0.05 {
		t.Errorf("sampled mean = %v, want ~%v", got, wantMean)
	}
}

func TestTotal(t *testing.T) {
	if got := Total(NewConstant(2), 10); got != 20 {
		t.Fatalf("constant total = %v", got)
	}
	if got := Total(NewIncreasing(1, 10, 10), 10); math.Abs(got-55) > 1e-9 {
		t.Fatalf("linear total = %v", got)
	}
	if got := Total(NewExponential(1.5), 10); math.Abs(got-15) > 1e-12 {
		t.Fatalf("exponential total = %v", got)
	}
}

func TestSpecBuild(t *testing.T) {
	cases := []struct {
		spec Spec
		name string
	}{
		{Spec{Kind: "constant", P1: 1}, "constant"},
		{Spec{Kind: "uniform", P1: 1, P2: 2}, "uniform"},
		{Spec{Kind: "uniform", P1: 2, P2: 2}, "uniform"},
		{Spec{Kind: "increasing", P1: 1, P2: 2, N: 10}, "increasing"},
		{Spec{Kind: "decreasing", P1: 2, P2: 1, N: 10}, "decreasing"},
		{Spec{Kind: "exponential", P1: 1}, "exponential"},
		{Spec{Kind: "normal", P1: 1, P2: 0.1}, "normal"},
		{Spec{Kind: "gamma", P1: 2, P2: 0.5}, "gamma"},
		{Spec{Kind: "bimodal", P1: 1, P2: 10, P3: 0.1}, "bimodal"},
		{Spec{Kind: "explicit", Times: []float64{1, 0, 2.5}}, "explicit"},
		{Spec{Kind: "explicit", Times: []float64{1, 0, 2.5}, N: 2}, "explicit"},
		{Spec{Kind: "exponential", P1: 1, Times: []float64{}}, "exponential"},
	}
	for _, c := range cases {
		w, err := c.spec.Build()
		if err != nil {
			t.Fatalf("Build(%+v): %v", c.spec, err)
		}
		if w.Name() != c.name {
			t.Errorf("Build(%+v).Name() = %q, want %q", c.spec, w.Name(), c.name)
		}
	}
}

func TestSpecBuildErrors(t *testing.T) {
	bad := []Spec{
		{Kind: "constant", P1: 0},
		{Kind: "constant", P1: -1},
		{Kind: "uniform", P1: 2, P2: 1},
		{Kind: "increasing", P1: 1, P2: 2}, // missing N
		{Kind: "increasing", P1: 2, P2: 1, N: 5},
		{Kind: "decreasing", P1: 1, P2: 2, N: 5},
		{Kind: "exponential", P1: 0},
		{Kind: "normal", P1: -1},
		{Kind: "gamma", P1: 0, P2: 1},
		{Kind: "bimodal", P3: 1.5},
		{Kind: "zipf"},
		// NaN fails every comparison, so each check must be the
		// negation of the valid range.
		{Kind: "constant", P1: math.NaN()},
		{Kind: "uniform", P1: math.NaN(), P2: 1},
		{Kind: "uniform", P1: 0, P2: math.NaN()},
		{Kind: "increasing", P1: math.NaN(), P2: 2, N: 5},
		{Kind: "decreasing", P1: 2, P2: math.NaN(), N: 5},
		{Kind: "exponential", P1: math.NaN()},
		{Kind: "normal", P1: math.NaN(), P2: 0.1},
		{Kind: "normal", P1: 1, P2: math.NaN()},
		{Kind: "gamma", P1: math.NaN(), P2: 1},
		{Kind: "gamma", P1: 2, P2: math.NaN()},
		{Kind: "bimodal", P1: math.NaN(), P2: 10, P3: 0.1},
		{Kind: "bimodal", P1: 1, P2: math.NaN(), P3: 0.1},
		{Kind: "bimodal", P1: 1, P2: 10, P3: math.NaN()},
		{Kind: "explicit"},
		{Kind: "explicit", Times: []float64{1, -2}},
		{Kind: "explicit", Times: []float64{1, math.NaN()}},
		{Kind: "explicit", Times: []float64{math.Inf(1)}},
		{Kind: "explicit", Times: []float64{1, 2}, N: 3},        // more tasks than times
		{Kind: "exponential", P1: 1, Times: []float64{1}},       // times on another kind
		{Kind: "constant", P1: 1, Times: []float64{1, 2}, N: 2}, // times on another kind
	}
	for _, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", s)
		}
	}
}

// TestChunkDecompositionInvariant: for deterministic workloads, splitting
// a chunk must not change the total time.
func TestChunkDecompositionInvariant(t *testing.T) {
	w := NewIncreasing(1, 100, 1000)
	f := func(a, b, c uint16) bool {
		start := int64(a) % 500
		n1 := int64(b)%100 + 1
		n2 := int64(c)%100 + 1
		whole := w.ChunkTime(start, n1+n2, nil)
		split := w.ChunkTime(start, n1, nil) + w.ChunkTime(start+n1, n2, nil)
		return math.Abs(whole-split) < 1e-9*math.Max(1, whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExponentialChunkTimeFastPath(b *testing.B) {
	w := NewExponential(1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = w.ChunkTime(0, 512, r)
	}
}

func BenchmarkExponentialChunkTimeExact(b *testing.B) {
	w := NewExponential(1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = rng.ErlangSum(r, 512, w.Mu)
	}
}

func TestExplicitWorkload(t *testing.T) {
	w, err := NewExplicit([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 4 {
		t.Fatalf("Len = %d", w.Len())
	}
	if got := w.Time(2, nil); got != 3 {
		t.Fatalf("Time(2) = %v", got)
	}
	if got := w.ChunkTime(1, 2, nil); got != 5 {
		t.Fatalf("ChunkTime(1,2) = %v", got)
	}
	if got := w.ChunkTime(0, 4, nil); got != 10 {
		t.Fatalf("ChunkTime(0,4) = %v", got)
	}
	if w.Mean() != 2.5 {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Population std of {1,2,3,4} = sqrt(1.25).
	if math.Abs(w.Std()-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("Std = %v", w.Std())
	}
	if !w.Deterministic() {
		t.Fatal("explicit workload must be deterministic")
	}
}

func TestExplicitBoundsClamped(t *testing.T) {
	w, err := NewExplicit([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Time(-1, nil); got != 0 {
		t.Fatalf("Time(-1) = %v", got)
	}
	if got := w.Time(9, nil); got != 0 {
		t.Fatalf("Time(9) = %v", got)
	}
	if got := w.ChunkTime(2, 5, nil); got != 3 {
		t.Fatalf("clamped chunk = %v, want 3", got)
	}
	if got := w.ChunkTime(-2, 3, nil); got != 1 { // range [-2,1) clamps to task 0 only
		t.Fatalf("negative-start chunk = %v, want 1", got)
	}
	if got := w.ChunkTime(0, 0, nil); got != 0 {
		t.Fatalf("zero chunk = %v", got)
	}
}

func TestExplicitValidation(t *testing.T) {
	if _, err := NewExplicit(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewExplicit([]float64{1, -2}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := NewExplicit([]float64{math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := NewExplicit([]float64{math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
}

// TestSpecExplicitKeepsFirstN: an explicit spec built for N tasks
// describes the first N recorded times, moments included.
func TestSpecExplicitKeepsFirstN(t *testing.T) {
	w, err := Spec{Kind: "explicit", Times: []float64{1, 3, 100}, N: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := w.(*Explicit)
	if e.Len() != 2 || e.Mean() != 2 || e.Std() != 1 {
		t.Fatalf("Len %d, Mean %v, Std %v; want 2, 2, 1", e.Len(), e.Mean(), e.Std())
	}
}

func TestExplicitDoesNotAliasInput(t *testing.T) {
	times := []float64{1, 2}
	w, err := NewExplicit(times)
	if err != nil {
		t.Fatal(err)
	}
	times[0] = 99
	if got := w.Time(0, nil); got != 1 {
		t.Fatalf("explicit workload aliases caller slice: %v", got)
	}
}
