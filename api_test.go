package repro

import (
	"maps"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := Simulate("FAC2", 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.AvgWasted <= 0 || res.SchedOps <= 0 {
		t.Fatalf("result = %+v", res)
	}
	var tasks int64
	for _, k := range res.TasksPerPE {
		tasks += k
	}
	if tasks != 1024 {
		t.Fatalf("tasks = %d", tasks)
	}
	if len(res.Compute) != 8 || len(res.Wasted) != 8 {
		t.Fatalf("per-PE slices wrong: %d %d", len(res.Compute), len(res.Wasted))
	}
}

func TestSimulateUnknownTechnique(t *testing.T) {
	if _, err := Simulate("LIFO", 10, 2); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestSimulateDeterministicSeed(t *testing.T) {
	a, err := Simulate("GSS", 4096, 16, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate("GSS", 4096, 16, WithSeed(9))
	if a.Makespan != b.Makespan {
		t.Fatal("same seed diverged")
	}
	c, _ := Simulate("GSS", 4096, 16, WithSeed(10))
	if a.Makespan == c.Makespan {
		t.Fatal("different seeds identical")
	}
}

func TestSimulateConstantSpeedup(t *testing.T) {
	res, err := Simulate("STAT", 1000, 10, WithConstant(0.01), WithOverhead(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Speedup-10) > 1e-9 {
		t.Fatalf("speedup = %v, want 10", res.Speedup)
	}
	if res.AvgWasted != 0 {
		t.Fatalf("wasted = %v, want 0", res.AvgWasted)
	}
}

func TestWastedTimeSSOverheadTerm(t *testing.T) {
	// SS with constant workload and h=0.5: wasted = h·n/p exactly
	// (perfect balance, zero idle when p divides n).
	v, err := WastedTime("SS", 1000, 10, WithConstant(0.01), WithOverhead(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-50) > 1e-9 {
		t.Fatalf("SS wasted = %v, want 50", v)
	}
}

func TestMeanWastedTime(t *testing.T) {
	v, err := MeanWastedTime("FAC2", 1024, 8, 20, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > 200 {
		t.Fatalf("mean wasted = %v", v)
	}
	if _, err := MeanWastedTime("FAC2", 1024, 8, 0); err == nil {
		t.Fatal("runs=0 accepted")
	}
	// Determinism of the run-seed derivation.
	v2, _ := MeanWastedTime("FAC2", 1024, 8, 20, WithSeed(3))
	if v != v2 {
		t.Fatal("MeanWastedTime not deterministic")
	}
}

// TestMeanWastedTimeMatchesSerialLoop pins the parallel campaign to the
// facade's historical serial loop: one Simulate per run seeded with
// rng.RunSeed(base, r), summed in run order. The results must be
// identical bit for bit.
func TestMeanWastedTimeMatchesSerialLoop(t *testing.T) {
	const runs = 25
	const base = uint64(3)
	var sum float64
	for r := 0; r < runs; r++ {
		v, err := WastedTime("FAC2", 1024, 8, WithSeed(rng.RunSeed(base, r)))
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	want := sum / runs
	got, err := MeanWastedTime("FAC2", 1024, 8, runs, WithSeed(base))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parallel mean %v != serial mean %v", got, want)
	}
	// And independent of the worker bound.
	serial, err := MeanWastedTime("FAC2", 1024, 8, runs, WithSeed(base), WithRunWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if serial != want {
		t.Fatalf("WithRunWorkers(1) mean %v != serial mean %v", serial, want)
	}
}

func TestWithBackend(t *testing.T) {
	ref, err := Simulate("FAC2", 1024, 8, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"des", "msg"} {
		res, err := Simulate("FAC2", 1024, 8, WithSeed(11), WithBackend(backend))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if rel := math.Abs(res.Makespan-ref.Makespan) / ref.Makespan; rel > 1e-6 {
			t.Errorf("%s makespan %v vs sim %v", backend, res.Makespan, ref.Makespan)
		}
	}
	if _, err := Simulate("FAC2", 64, 2, WithBackend("simgrid")); err == nil {
		t.Error("unknown backend accepted")
	}
	// Compare targets a named backend for all techniques at once.
	cmp, err := Compare([]string{"STAT", "FAC2"}, 512, 4, WithSeed(2), WithBackend("msg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 2 || cmp["STAT"] <= 0 || cmp["FAC2"] <= 0 {
		t.Fatalf("Compare on msg backend = %v", cmp)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := Simulate("FAC2", 0, 8); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Simulate("FAC2", -5, 8); err == nil {
		t.Error("n<0 accepted")
	}
	if _, err := Simulate("FAC2", 1024, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := WastedTime("FAC2", 1024, -1); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := MeanWastedTime("FAC2", 0, 8, 10); err == nil {
		t.Error("MeanWastedTime n=0 accepted")
	}
	if _, err := Compare([]string{"FAC2"}, 1024, 0); err == nil {
		t.Error("Compare p=0 accepted")
	}
	if _, err := Compare(nil, 1024, 8); err == nil {
		t.Error("Compare with no techniques accepted")
	}
	nan := math.NaN()
	for _, pe := range []struct {
		name string
		opt  Option
	}{
		{"NaN speed", WithSpeeds([]float64{1, nan, 1, 1})},
		{"zero speed", WithSpeeds([]float64{1, 0, 1, 1})},
		{"infinite speed", WithSpeeds([]float64{1, math.Inf(1), 1, 1})},
		{"NaN start time", WithStartTimes([]float64{0, nan, 0, 0})},
		{"infinite start time", WithStartTimes([]float64{0, 0, math.Inf(-1), 0})},
	} {
		if _, err := Simulate("SS", 100, 4, pe.opt); err == nil {
			t.Errorf("Simulate with %s accepted", pe.name)
		}
		if _, err := MeanWastedTime("SS", 100, 4, 3, pe.opt); err == nil {
			t.Errorf("MeanWastedTime with %s accepted", pe.name)
		}
		if _, err := Compare([]string{"SS", "FAC2"}, 100, 4, pe.opt, WithBackend("des")); err == nil {
			t.Errorf("Compare on des with %s accepted", pe.name)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	res, err := Compare([]string{"STAT", "SS", "BOLD"}, 8192, 8, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	// SS pays h·n/p = 512; BOLD must beat both naive approaches here.
	if !(res["BOLD"] < res["SS"]) || !(res["BOLD"] < res["STAT"]) {
		t.Fatalf("ordering wrong: %v", res)
	}
	if _, err := Compare([]string{"NOPE"}, 10, 2); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestOptionsApply(t *testing.T) {
	// GSS(80): no chunk below 80 except the final remainder → far fewer
	// ops than GSS(1).
	a, err := Simulate("GSS", 100000, 8, WithConstant(0.001), WithMinChunk(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate("GSS", 100000, 8, WithConstant(0.001), WithMinChunk(80))
	if err != nil {
		t.Fatal(err)
	}
	if b.SchedOps >= a.SchedOps {
		t.Fatalf("GSS(80) ops %d >= GSS(1) ops %d", b.SchedOps, a.SchedOps)
	}
	// Heterogeneous speeds shift work.
	h, err := Simulate("SS", 10000, 2, WithConstant(0.001), WithSpeeds([]float64{3, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if h.TasksPerPE[0] < 2*h.TasksPerPE[1] {
		t.Fatalf("fast PE tasks = %v", h.TasksPerPE)
	}
	// Start skew matters to static chunking.
	s, err := Simulate("STAT", 1000, 4, WithConstant(0.01), WithStartTimes([]float64{0, 0, 0, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan < 5 {
		t.Fatalf("makespan %v ignores start skew", s.Makespan)
	}
}

func TestTechniquesList(t *testing.T) {
	names := Techniques()
	if len(names) != 15 {
		t.Fatalf("Techniques() = %v", names)
	}
	for _, name := range names {
		if _, err := Simulate(name, 512, 4); err != nil {
			t.Errorf("Simulate(%s): %v", name, err)
		}
	}
}

func TestWithTSSBoundsAndAlpha(t *testing.T) {
	res, err := Simulate("TSS", 1000, 4, WithConstant(0.01), WithTSSBounds(50, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedOps == 0 {
		t.Fatal("no ops")
	}
	if _, err := Simulate("TAP", 1000, 4, WithAlpha(2.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate("WF", 1000, 2, WithWeights([]float64{1, 3})); err != nil {
		t.Fatal(err)
	}
}

func TestWithOverheadInDynamics(t *testing.T) {
	plain, err := Simulate("SS", 500, 8, WithConstant(0.001), WithOverhead(0.01))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Simulate("SS", 500, 8, WithConstant(0.001), WithOverhead(0.01), WithOverheadInDynamics())
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Makespan <= plain.Makespan {
		t.Fatalf("dynamics makespan %v <= plain %v", dyn.Makespan, plain.Makespan)
	}
}

// TestWithIncreasingHonorsOwnTaskCount is a regression test: the ramp's
// task count is part of the workload's shape (it sets the slope), so the
// declarative campaign path must not substitute the simulation's n for
// it. The declarative path (WithIncreasing) must match the opaque
// fallback path (WithWorkload with the identical workload) bit for bit.
func TestWithIncreasingHonorsOwnTaskCount(t *testing.T) {
	const n, p, runs = 1000, 4, 5
	declarative, err := MeanWastedTime("FAC2", n, p, runs,
		WithIncreasing(0.001, 0.002, 100), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := MeanWastedTime("FAC2", n, p, runs,
		WithWorkload(workload.NewIncreasing(0.001, 0.002, 100)), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if declarative != direct {
		t.Fatalf("declarative path %v != direct path %v (workload N overridden)", declarative, direct)
	}
}

// TestWithCacheServesRepeatedCampaigns: a repeated MeanWastedTime and
// Compare with WithCache must return the exact live-run values, served
// from the on-disk store.
func TestWithCacheServesRepeatedCampaigns(t *testing.T) {
	dir := t.TempDir()
	live, err := MeanWastedTime("FAC2", 1024, 8, 10, WithSeed(5), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := MeanWastedTime("FAC2", 1024, 8, 10, WithSeed(5), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if cached != live {
		t.Fatalf("cached mean %v != live mean %v", cached, live)
	}
	// And bit-identical to the uncached path.
	plain, err := MeanWastedTime("FAC2", 1024, 8, 10, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if live != plain {
		t.Fatalf("cache-enabled mean %v != plain mean %v", live, plain)
	}

	cmpLive, err := Compare([]string{"FAC2", "GSS"}, 512, 4, WithSeed(5), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	cmpCached, err := Compare([]string{"FAC2", "GSS"}, 512, 4, WithSeed(5), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	for tech, v := range cmpLive {
		if cmpCached[tech] != v {
			t.Fatalf("cached Compare[%s] = %v, want %v", tech, cmpCached[tech], v)
		}
	}
}

// TestDegenerateWorkloadFallsBackToDirectPath: facade constructors
// accept parameter sets the declarative workload parser rejects (uniform
// with hi == lo); those must keep working through the direct path
// instead of erroring on the campaign-spec path.
func TestDegenerateWorkloadFallsBackToDirectPath(t *testing.T) {
	viaOption, err := MeanWastedTime("SS", 1000, 4, 5, WithUniform(2, 2), WithSeed(1))
	if err != nil {
		t.Fatalf("degenerate uniform rejected: %v", err)
	}
	viaWorkload, err := MeanWastedTime("SS", 1000, 4, 5,
		WithWorkload(workload.NewUniformRandom(2, 2)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if viaOption != viaWorkload {
		t.Fatalf("degenerate uniform mean %v != direct-path mean %v", viaOption, viaWorkload)
	}
	if _, err := Compare([]string{"SS"}, 100, 2, WithUniform(2, 2)); err != nil {
		t.Fatalf("Compare with degenerate uniform rejected: %v", err)
	}
}

// TestWithCachePopulatesEverySeparateDirectory: each WithCache directory
// is its own store, so a campaign repeated against a second directory
// must still write that directory.
func TestWithCachePopulatesEverySeparateDirectory(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := MeanWastedTime("FAC2", 512, 4, 5, WithSeed(8), WithCache(dirA)); err != nil {
		t.Fatal(err)
	}
	if _, err := MeanWastedTime("FAC2", 512, 4, 5, WithSeed(8), WithCache(dirB)); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"first": dirA, "second": dirB} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s cache directory %s not populated", name, dir)
		}
	}
}

// TestCompareRejectsDuplicateTechniques: a duplicate name would
// silently collapse into one key of the returned map.
func TestCompareRejectsDuplicateTechniques(t *testing.T) {
	if _, err := Compare([]string{"FAC2", "SS", "FAC2"}, 64, 2); err == nil ||
		!strings.Contains(err.Error(), `duplicate technique "FAC2"`) {
		t.Fatalf("Compare = %v, want duplicate technique error", err)
	}
	// The non-declarative path validates too.
	if _, err := Compare([]string{"SS", "SS"}, 64, 2,
		WithWorkload(workload.NewConstant(1))); err == nil ||
		!strings.Contains(err.Error(), "duplicate technique") {
		t.Fatalf("non-declarative Compare = %v, want duplicate technique error", err)
	}
}

// facadeGate counts the backend runs the facade performs; it is
// released at registration, so its runs complete at once on the sim
// backend.
var facadeGate = testutil.NewGateBackend("facade-gate")

func init() {
	engine.Register(facadeGate)
	facadeGate.Release()
}

// TestWithCacheRepeatRunsNothing: a MeanWastedTime or Compare repeated
// against the same WithCache directory performs zero backend runs and
// returns the first call's values.
func TestWithCacheRepeatRunsNothing(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithBackend(facadeGate.Name()), WithSeed(11), WithCache(dir)}

	mean := func() float64 {
		t.Helper()
		v, err := MeanWastedTime("FAC2", 512, 4, 6, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	before := facadeGate.Runs.Load()
	live := mean()
	if runs := facadeGate.Runs.Load() - before; runs != 6 {
		t.Fatalf("first MeanWastedTime performed %d backend runs, want 6", runs)
	}
	before = facadeGate.Runs.Load()
	if cached := mean(); cached != live {
		t.Fatalf("cached mean %v != live mean %v", cached, live)
	}
	if runs := facadeGate.Runs.Load() - before; runs != 0 {
		t.Fatalf("repeated MeanWastedTime performed %d backend runs, want 0", runs)
	}

	compare := func() map[string]float64 {
		t.Helper()
		m, err := Compare([]string{"FAC2", "GSS", "SS"}, 512, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before = facadeGate.Runs.Load()
	cmpLive := compare()
	if runs := facadeGate.Runs.Load() - before; runs != 3 {
		t.Fatalf("first Compare performed %d backend runs, want 3", runs)
	}
	before = facadeGate.Runs.Load()
	if cmpCached := compare(); !maps.Equal(cmpCached, cmpLive) {
		t.Fatalf("cached Compare %v != live %v", cmpCached, cmpLive)
	}
	if runs := facadeGate.Runs.Load() - before; runs != 0 {
		t.Fatalf("repeated Compare performed %d backend runs, want 0", runs)
	}
}
