package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/campaign"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/testutil"
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

// TestWithIncreasingHonorsOwnTaskCount: the ramp's task count is part
// of the workload's shape (it sets the slope), so the facade must not
// substitute the call's n for it: WithIncreasing(a, b, 100) runs the
// spec whose Workload.N is 100. With n = 0 the ramp spans the call's n,
// as dlsim -dist increasing does.
func TestWithIncreasingHonorsOwnTaskCount(t *testing.T) {
	const n, p, runs = 1000, 4, 5
	spec := campaign.Spec{
		Techniques:   []string{"FAC2"},
		Ns:           []int64{n},
		Ps:           []int{p},
		Workload:     campaign.Workload{Kind: "increasing", P1: 0.001, P2: 0.002, N: 100},
		H:            0.5,
		Replications: runs,
		Seed:         42,
		SeedPolicy:   campaign.SeedFacade,
	}
	res, err := campaign.NewLocal(campaign.LocalConfig{}).Execute(context.Background(), spec, campaign.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	own, err := MeanWastedTime("FAC2", n, p, runs, WithIncreasing(0.001, 0.002, 100), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Aggregates[0].Wasted.Mean; own != want {
		t.Fatalf("WithIncreasing(..., 100) mean %v != spec with Workload.N = 100 mean %v", own, want)
	}
	callN, err := MeanWastedTime("FAC2", n, p, runs, WithIncreasing(0.001, 0.002, 0), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	named, err := MeanWastedTime("FAC2", n, p, runs, WithIncreasing(0.001, 0.002, n), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if callN != named || callN == own {
		t.Fatalf("ramp over the call's n: %v, over n named: %v, over 100 tasks: %v", callN, named, own)
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

// TestDegenerateWorkloadFallsBackToDirectPath: uniform task times with
// hi == lo are a valid workload in which every task takes lo seconds,
// so all three entry points give constant(lo)'s bits.
func TestDegenerateWorkloadFallsBackToDirectPath(t *testing.T) {
	techniques := []string{"SS", "FAC2", "GSS", "FSC", "BOLD"}
	uniform, constant := WithUniform(2, 2), WithConstant(2)
	for _, tech := range techniques {
		u, err := Simulate(tech, 1000, 4, uniform)
		if err != nil {
			t.Fatalf("%s: degenerate uniform rejected: %v", tech, err)
		}
		c, err := Simulate(tech, 1000, 4, constant)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u, c) {
			t.Errorf("%s: Simulate uniform(2, 2) %+v != constant(2) %+v", tech, u, c)
		}
		um, err := MeanWastedTime(tech, 1000, 4, 5, uniform)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := MeanWastedTime(tech, 1000, 4, 5, constant)
		if err != nil {
			t.Fatal(err)
		}
		if um != cm {
			t.Errorf("%s: MeanWastedTime uniform(2, 2) %v != constant(2) %v", tech, um, cm)
		}
	}
	u, err := Compare(techniques, 1000, 4, uniform)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(techniques, 1000, 4, constant)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(u, c) {
		t.Errorf("Compare uniform(2, 2) %v != constant(2) %v", u, c)
	}
}

// TestInvalidWorkloadRejected: a workload the campaign spec cannot
// build is an error on every entry point, before any run starts.
func TestInvalidWorkloadRejected(t *testing.T) {
	isWorkloadErr := func(err error) bool { return err != nil && strings.Contains(err.Error(), "workload:") }
	for name, opt := range map[string]Option{
		"exponential(-1)": WithExponential(-1),
		"constant(NaN)":   WithConstant(math.NaN()),
		"constant(-2)":    WithConstant(-2),
	} {
		if _, err := Simulate("FAC2", 100, 4, opt); !isWorkloadErr(err) {
			t.Errorf("Simulate with %s: err = %v, want a workload error", name, err)
		}
		if _, err := MeanWastedTime("FAC2", 100, 4, 5, opt); !isWorkloadErr(err) {
			t.Errorf("MeanWastedTime with %s: err = %v, want a workload error", name, err)
		}
		if _, err := Compare([]string{"SS", "FAC2"}, 100, 4, opt); !isWorkloadErr(err) {
			t.Errorf("Compare with %s: err = %v, want a workload error", name, err)
		}
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
	// Every backend and workload validates the same way.
	for _, backend := range []string{"des", "msg"} {
		if _, err := Compare([]string{"SS", "SS"}, 64, 2,
			WithConstant(1), WithBackend(backend)); err == nil ||
			!strings.Contains(err.Error(), "duplicate technique") {
			t.Fatalf("Compare on %s = %v, want duplicate technique error", backend, err)
		}
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

// facadeDigest is the SHA-256 TestFacadeDigest computes.
const facadeDigest = "43f0fe5b486d0eda11940713d07433f3ffdf6f12e0eb8c3097e553b0c5f6afae"

// TestFacadeDigest pins every bit the facade returns. For each option
// set below, on each backend that supports it, it hashes the full
// Result of Simulate and the 5-run MeanWastedTime of every technique,
// then the Compare map over all of them, into one SHA-256 in table
// order. Rows whose option only parameterizes a technique outside the
// common five add that technique.
func TestFacadeDigest(t *testing.T) {
	const n, p, runs = 1000, 4, 5
	common := []string{"SS", "GSS", "FAC2", "BOLD", "AWF-B"}
	all, noMsg := []string{"sim", "des", "msg"}, []string{"sim", "des"}
	cases := []struct {
		name     string
		opts     []Option
		extra    string
		backends []string
	}{
		{"defaults", nil, "", all},
		{"exponential", []Option{WithExponential(2)}, "", all},
		{"constant", []Option{WithConstant(0.01)}, "", all},
		{"uniform", []Option{WithUniform(0.5, 1.5)}, "", all},
		{"uniform degenerate", []Option{WithUniform(2, 2)}, "", all},
		{"increasing own n", []Option{WithIncreasing(0.001, 0.002, 100)}, "", all},
		{"increasing call n", []Option{WithIncreasing(0.001, 0.002, n)}, "", all},
		{"overhead and seed", []Option{WithOverhead(0.1), WithSeed(7)}, "", all},
		{"speeds", []Option{WithSpeeds([]float64{1, 2, 0.5, 1})}, "", all},
		{"start times", []Option{WithStartTimes([]float64{0, 1, 2, 3})}, "", noMsg},
		{"min chunk", []Option{WithMinChunk(20)}, "", all},
		{"chunk", []Option{WithChunk(10)}, "CSS", all},
		{"TSS bounds", []Option{WithTSSBounds(50, 2)}, "TSS", all},
		{"alpha", []Option{WithAlpha(2)}, "TAP", all},
		{"weights", []Option{WithWeights([]float64{1, 2, 1, 2})}, "WF", all},
		{"h in dynamics", []Option{WithConstant(0.001), WithOverhead(0.01), WithOverheadInDynamics()}, "", all},
		{"message cost", []Option{WithMessageCost(0.01)}, "", all},
	}
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		techniques := common
		if tc.extra != "" {
			techniques = append(append([]string(nil), common...), tc.extra)
		}
		for _, backend := range tc.backends {
			name := tc.name + "/" + backend
			opts := append(append([]Option(nil), tc.opts...), WithBackend(backend))
			h.Write([]byte(name))
			for _, tech := range techniques {
				res, err := Simulate(tech, n, p, opts...)
				if err != nil {
					t.Fatalf("%s: Simulate(%s): %v", name, tech, err)
				}
				put([]float64{res.Makespan, res.AvgWasted, res.Speedup})
				put(res.SchedOps)
				put(res.Compute)
				put(res.Wasted)
				put(res.TasksPerPE)
				mean, err := MeanWastedTime(tech, n, p, runs, opts...)
				if err != nil {
					t.Fatalf("%s: MeanWastedTime(%s): %v", name, tech, err)
				}
				put(mean)
			}
			cmp, err := Compare(techniques, n, p, opts...)
			if err != nil {
				t.Fatalf("%s: Compare: %v", name, err)
			}
			for _, tech := range techniques {
				put(cmp[tech])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != facadeDigest {
		t.Fatalf("facade digest = %s, want %s", got, facadeDigest)
	}
}
