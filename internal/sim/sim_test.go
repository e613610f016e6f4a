package sim

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func mustSched(t testing.TB, name string, p sched.Params) sched.Scheduler {
	t.Helper()
	s, err := sched.New(name, p)
	if err != nil {
		t.Fatalf("sched.New(%s): %v", name, err)
	}
	return s
}

// runOne builds and runs one Hagerup-style simulation.
func runOne(t testing.TB, tech string, n int64, p int, seed uint64) *Result {
	t.Helper()
	s := mustSched(t, tech, sched.Params{N: n, P: p, H: 0.5, Mu: 1, Sigma: 1})
	res, err := Run(Config{
		P:     p,
		Sched: s,
		Work:  workload.NewExponential(1),
		RNG:   rng.FromState(seed),
	})
	if err != nil {
		t.Fatalf("Run(%s): %v", tech, err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	s := mustSched(t, "SS", sched.Params{N: 10, P: 2})
	w := workload.NewConstant(1)
	if _, err := Run(Config{P: 0, Sched: s, Work: w}); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := Run(Config{P: 2, Work: w}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := Run(Config{P: 2, Sched: s}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(Config{P: 2, Sched: s, Work: w, Speeds: []float64{1}}); err == nil {
		t.Error("wrong speeds length accepted")
	}
	if _, err := Run(Config{P: 2, Sched: s, Work: w, StartTimes: []float64{0}}); err == nil {
		t.Error("wrong start times length accepted")
	}
	if _, err := Run(Config{P: 2, Sched: s, Work: workload.NewExponential(1)}); err == nil {
		t.Error("random workload without RNG accepted")
	}
}

// TestConstantWorkloadExactMakespan: with constant tasks and STAT, the
// makespan is exactly chunk*taskTime and all tasks are executed.
func TestConstantWorkloadExactMakespan(t *testing.T) {
	const n, p = 100, 4
	s := mustSched(t, "STAT", sched.Params{N: n, P: p})
	res, err := Run(Config{P: p, Sched: s, Work: workload.NewConstant(2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-50) > 1e-9 { // ⌈100/4⌉ = 25 tasks × 2 s
		t.Fatalf("makespan = %v, want 50", res.Makespan)
	}
	var total int64
	for _, k := range res.TasksPerWorker {
		total += k
	}
	if total != n {
		t.Fatalf("executed %d tasks, want %d", total, n)
	}
	if res.SchedOps != p {
		t.Fatalf("SchedOps = %d, want %d", res.SchedOps, p)
	}
}

// TestSSPerfectBalanceConstant: SS with constant tasks and p dividing n
// keeps all workers busy to the same finish time (free scheduling).
func TestSSPerfectBalanceConstant(t *testing.T) {
	s := mustSched(t, "SS", sched.Params{N: 100, P: 4})
	res, err := Run(Config{P: 4, Sched: s, Work: workload.NewConstant(1)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-25) > 1e-9 {
		t.Fatalf("makespan = %v, want 25", res.Makespan)
	}
	for w, c := range res.Compute {
		if math.Abs(c-25) > 1e-9 {
			t.Fatalf("worker %d compute = %v, want 25", w, c)
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	a := runOne(t, "FAC2", 8192, 8, 42)
	b := runOne(t, "FAC2", 8192, 8, 42)
	if a.Makespan != b.Makespan || a.SchedOps != b.SchedOps {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.Makespan, a.SchedOps, b.Makespan, b.SchedOps)
	}
	for w := range a.Compute {
		if a.Compute[w] != b.Compute[w] {
			t.Fatalf("worker %d compute diverged", w)
		}
	}
	c := runOne(t, "FAC2", 8192, 8, 43)
	if a.Makespan == c.Makespan {
		t.Fatal("different seeds produced identical makespans")
	}
}

// TestAllTechniquesCompleteAllTasks runs every technique through the
// simulator on the Hagerup workload and checks conservation of tasks and
// basic sanity of the timing outputs.
func TestAllTechniquesCompleteAllTasks(t *testing.T) {
	const n, p = 1024, 8
	for _, tech := range sched.Names() {
		res := runOne(t, tech, n, p, 7)
		var total int64
		for _, k := range res.TasksPerWorker {
			total += k
		}
		if total != n {
			t.Errorf("%s executed %d tasks, want %d", tech, total, n)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s makespan = %v", tech, res.Makespan)
		}
		var ops int64
		for _, o := range res.OpsPerWorker {
			ops += o
		}
		if ops != res.SchedOps {
			t.Errorf("%s per-worker ops %d != total %d", tech, ops, res.SchedOps)
		}
		for w, c := range res.Compute {
			if c < 0 || c > res.Makespan+1e-9 {
				t.Errorf("%s worker %d compute %v outside [0, makespan=%v]", tech, w, c, res.Makespan)
			}
			if res.Finish[w] > res.Makespan+1e-9 {
				t.Errorf("%s worker %d finish %v > makespan %v", tech, w, res.Finish[w], res.Makespan)
			}
		}
	}
}

// TestMakespanLowerBound: the makespan can never be smaller than the
// total work divided by p (with unit speeds).
func TestMakespanLowerBound(t *testing.T) {
	for _, tech := range []string{"STAT", "SS", "GSS", "TSS", "FAC", "FAC2", "BOLD", "FSC"} {
		res := runOne(t, tech, 2048, 16, 11)
		var work float64
		for _, c := range res.Compute {
			work += c
		}
		if res.Makespan < work/16-1e-9 {
			t.Errorf("%s: makespan %v < work/p %v", tech, res.Makespan, work/16)
		}
	}
}

// TestHeterogeneousSpeeds: a twice-as-fast worker should execute roughly
// twice the tasks under SS (perfect dynamic balancing).
func TestHeterogeneousSpeeds(t *testing.T) {
	s := mustSched(t, "SS", sched.Params{N: 30000, P: 2})
	res, err := Run(Config{
		P:      2,
		Sched:  s,
		Work:   workload.NewConstant(0.001),
		Speeds: []float64{2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.TasksPerWorker[0]) / float64(res.TasksPerWorker[1])
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("task ratio = %v, want ≈2", ratio)
	}
}

// TestUnevenStartTimes: GSS was designed for uneven starts; a late worker
// must still participate and the makespan must not precede its start.
func TestUnevenStartTimes(t *testing.T) {
	s := mustSched(t, "GSS", sched.Params{N: 10000, P: 4})
	res, err := Run(Config{
		P:          4,
		Sched:      s,
		Work:       workload.NewConstant(0.01),
		StartTimes: []float64{0, 0, 0, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksPerWorker[3] == 0 {
		t.Fatal("late worker got no tasks")
	}
	if res.Makespan < 20 {
		t.Fatalf("makespan %v before last start", res.Makespan)
	}
	// Early workers should carry more load than the late one.
	if res.TasksPerWorker[3] >= res.TasksPerWorker[0] {
		t.Fatalf("late worker %d tasks >= early worker %d", res.TasksPerWorker[3], res.TasksPerWorker[0])
	}
}

// TestHInDynamicsSerializesMaster: with h charged in the dynamics, SS on
// p workers cannot finish faster than n·h (the master is a bottleneck).
func TestHInDynamicsSerializesMaster(t *testing.T) {
	const n = 1000
	s := mustSched(t, "SS", sched.Params{N: n, P: 8})
	res, err := Run(Config{
		P:           8,
		Sched:       s,
		Work:        workload.NewConstant(0.001),
		H:           0.01,
		HInDynamics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < n*0.01 {
		t.Fatalf("makespan %v < master floor %v", res.Makespan, n*0.01)
	}
	// The master services n chunk requests plus 8 finalization requests.
	if want := (n + 8) * 0.01; math.Abs(res.MasterBusy-want) > 1e-9 {
		t.Fatalf("MasterBusy = %v, want %v", res.MasterBusy, want)
	}
}

// TestPerMessageCost: network cost per operation is added on the worker
// path and accumulated.
func TestPerMessageCost(t *testing.T) {
	s := mustSched(t, "SS", sched.Params{N: 100, P: 1})
	res, err := Run(Config{
		P:              1,
		Sched:          s,
		Work:           workload.NewConstant(0.01),
		PerMessageCost: 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 100*0.01 + 100*0.005
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if math.Abs(res.CommTime-0.5) > 1e-9 {
		t.Fatalf("CommTime = %v, want 0.5", res.CommTime)
	}
}

// TestPerturbationRejectsZeroSpeed: a PE perturbed down to zero speed
// would never finish its chunk, so both Run and RunInto reject it.
func TestPerturbationRejectsZeroSpeed(t *testing.T) {
	cfg := Config{
		P:      2,
		Sched:  mustSched(t, "STAT", sched.Params{N: 10, P: 2}),
		Work:   workload.NewConstant(1),
		Speeds: []float64{1, 0},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("Run: zero perturbed speed accepted")
	}
	if _, err := RunInto(cfg, new(Arena)); err == nil {
		t.Error("RunInto: zero perturbed speed accepted")
	}
}

// TestRunRejectsNaN: a NaN speed or start time fails every comparison,
// so unchecked it would hand one worker half the chunks and drop it from
// the makespan, or leave workers idle; an infinite speed would hand one
// worker nearly every chunk at zero cost. Each is an error, as are a
// speed that is not positive and an infinite start time.
func TestRunRejectsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"NaN speed", func(c *Config) { c.Speeds = []float64{1, nan, 1, 1} }},
		{"zero speed", func(c *Config) { c.Speeds = []float64{1, 0, 1, 1} }},
		{"negative speed", func(c *Config) { c.Speeds = []float64{1, -1, 1, 1} }},
		{"infinite speed", func(c *Config) { c.Speeds = []float64{1, math.Inf(1), 1, 1} }},
		{"NaN start time", func(c *Config) { c.StartTimes = []float64{0, nan, 0, 0} }},
		{"infinite start time", func(c *Config) { c.StartTimes = []float64{0, math.Inf(1), 0, 0} }},
	}
	for _, tc := range cases {
		cfg := Config{P: 4, Sched: mustSched(t, "SS", sched.Params{N: 100, P: 4}), Work: workload.NewConstant(1)}
		tc.mut(&cfg)
		if res, err := Run(cfg); err == nil {
			t.Errorf("%s accepted: tasks per worker %v, makespan %v", tc.name, res.TasksPerWorker, res.Makespan)
		}
	}
}

// TestHagerupShapeSmall is a statistical smoke test of the headline
// result shape on a small grid: averaged over runs, SS's wasted time is
// dominated by h·n/p, and BOLD beats STAT under high variance.
func TestHagerupShapeSmall(t *testing.T) {
	const n, p, runs = 1024, 8, 40
	avgWasted := func(tech string) float64 {
		var sum float64
		for r := 0; r < runs; r++ {
			res := runOne(t, tech, n, p, rng.RunSeed(99, r))
			sum += metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, 0.5)
		}
		return sum / runs
	}
	ss := avgWasted("SS")
	stat := avgWasted("STAT")
	bold := avgWasted("BOLD")
	fac2 := avgWasted("FAC2")

	if ssFloor := 0.5 * float64(n) / float64(p); ss < ssFloor {
		t.Errorf("SS wasted %v below overhead floor %v", ss, ssFloor)
	}
	if bold >= stat {
		t.Errorf("BOLD wasted %v >= STAT %v; variance-aware technique should win", bold, stat)
	}
	if bold >= ss {
		t.Errorf("BOLD wasted %v >= SS %v", bold, ss)
	}
	if fac2 >= ss {
		t.Errorf("FAC2 wasted %v >= SS %v", fac2, ss)
	}
}

func BenchmarkRunFAC2Hagerup8192x64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := sched.New("FAC2", sched.Params{N: 8192, P: 64, H: 0.5, Mu: 1, Sigma: 1})
		_, err := Run(Config{P: 64, Sched: s, Work: workload.NewExponential(1), RNG: rng.FromState(rng.RunSeed(1, i))})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSSHagerup8192x64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := sched.New("SS", sched.Params{N: 8192, P: 64, H: 0.5, Mu: 1, Sigma: 1})
		_, err := Run(Config{P: 64, Sched: s, Work: workload.NewExponential(1), RNG: rng.FromState(rng.RunSeed(1, i))})
		if err != nil {
			b.Fatal(err)
		}
	}
}
