package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"des", "msg", "sim"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("backend %q not registered (have %v)", want, names)
		}
	}
	for _, name := range names {
		b, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, b.Name())
		}
	}
	def, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != DefaultBackend {
		t.Errorf("empty name selected %q, want %q", def.Name(), DefaultBackend)
	}
	if _, err := New("simgrid"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend error = %v", err)
	}
}

func TestRunSpecValidate(t *testing.T) {
	good := RunSpec{Technique: "FAC2", N: 64, P: 4, Work: workload.NewConstant(1)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*RunSpec)
	}{
		{"N=0", func(s *RunSpec) { s.N = 0 }},
		{"P=0", func(s *RunSpec) { s.P = 0 }},
		{"nil work", func(s *RunSpec) { s.Work = nil }},
		{"short speeds", func(s *RunSpec) { s.Speeds = []float64{1} }},
		{"short starts", func(s *RunSpec) { s.StartTimes = []float64{0, 0} }},
		{"NaN speed", func(s *RunSpec) { s.Speeds = []float64{1, math.NaN(), 1, 1} }},
		{"zero speed", func(s *RunSpec) { s.Speeds = []float64{1, 1, 0, 1} }},
		{"negative speed", func(s *RunSpec) { s.Speeds = []float64{-1, 1, 1, 1} }},
		{"infinite speed", func(s *RunSpec) { s.Speeds = []float64{1, 1, 1, math.Inf(1)} }},
		{"NaN start", func(s *RunSpec) { s.StartTimes = []float64{0, math.NaN(), 0, 0} }},
		{"infinite start", func(s *RunSpec) { s.StartTimes = []float64{0, 0, math.Inf(1), 0} }},
	}
	for _, c := range cases {
		s := good
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// relDiff returns |a-b| / max(|a|,|b|).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// TestCrossBackendEquivalence runs the identical spec (same technique,
// workload and rand48 state) on every backend and requires matching
// makespans: the backends consume randomness in chunk-assignment order,
// so a shared seed reproduces the run across simulators up to the msg
// model's residual free-network latency.
func TestCrossBackendEquivalence(t *testing.T) {
	specs := map[string]RunSpec{
		"constant/GSS": {
			Technique: "GSS", N: 2000, P: 8,
			Work: workload.NewConstant(0.01),
		},
		"exponential/FAC2": {
			Technique: "FAC2", N: 4096, P: 16,
			Work:     workload.NewExponential(1),
			RNGState: rng.RunSeed(99, 0),
		},
		"exponential/BOLD+h": {
			Technique: "BOLD", N: 1024, P: 8, H: 0.5,
			Work:     workload.NewExponential(1),
			RNGState: rng.RunSeed(7, 3),
		},
	}
	for label, spec := range specs {
		ref, err := simBackend{}.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: sim: %v", label, err)
		}
		for _, name := range []string{"des", "msg"} {
			be, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := be.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, name, err)
			}
			if d := relDiff(res.Makespan, ref.Makespan); d > 1e-6 {
				t.Errorf("%s: %s makespan %v vs sim %v (rel %g)", label, name, res.Makespan, ref.Makespan, d)
			}
			if res.SchedOps != ref.SchedOps {
				t.Errorf("%s: %s ops %d vs sim %d", label, name, res.SchedOps, ref.SchedOps)
			}
			var tasks int64
			for _, k := range res.TasksPerWorker {
				tasks += k
			}
			if tasks != spec.N {
				t.Errorf("%s: %s executed %d tasks, want %d", label, name, tasks, spec.N)
			}
		}
	}
}

// TestDesBackendFullSurface checks the knobs the des backend shares with
// sim: heterogeneous speeds, start skew, master serialization, message
// cost and observation all behave as in the event-heap simulator.
func TestDesBackendFullSurface(t *testing.T) {
	spec := RunSpec{
		Technique:      "SS",
		N:              500,
		P:              4,
		Work:           workload.NewConstant(0.01),
		Speeds:         []float64{3, 1, 1, 1},
		StartTimes:     []float64{0, 0, 0, 2},
		H:              0.01,
		HInDynamics:    true,
		PerMessageCost: 1e-4,
	}
	var simEvents, desEvents int
	simSpec := spec
	simSpec.Observe = func(int, int64, int64, float64, float64) { simEvents++ }
	ref, err := simBackend{}.Run(context.Background(), simSpec)
	if err != nil {
		t.Fatal(err)
	}
	desSpec := spec
	desSpec.Observe = func(int, int64, int64, float64, float64) { desEvents++ }
	res, err := desBackend{}.Run(context.Background(), desSpec)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(res.Makespan, ref.Makespan); d > 1e-9 {
		t.Errorf("makespan %v vs sim %v", res.Makespan, ref.Makespan)
	}
	if res.MasterBusy != ref.MasterBusy || relDiff(res.CommTime, ref.CommTime) > 1e-9 {
		t.Errorf("master/comm (%v, %v) vs sim (%v, %v)",
			res.MasterBusy, res.CommTime, ref.MasterBusy, ref.CommTime)
	}
	if simEvents == 0 || simEvents != desEvents {
		t.Errorf("observed %d sim events vs %d des events", simEvents, desEvents)
	}
	// The late-starting PE must execute fewer tasks than the on-time
	// 1x PEs (the serialized master otherwise levels the distribution).
	if res.TasksPerWorker[3] >= res.TasksPerWorker[1] {
		t.Errorf("start skew ignored: tasks = %v", res.TasksPerWorker)
	}
}

func TestMsgBackendRejectsUnsupported(t *testing.T) {
	base := RunSpec{Technique: "FAC2", N: 64, P: 2, Work: workload.NewConstant(0.01)}
	withStarts := base
	withStarts.StartTimes = []float64{0, 1}
	if _, err := (msgBackend{}).Run(context.Background(), withStarts); err == nil {
		t.Error("msg backend accepted start times")
	}
	withObserve := base
	withObserve.Observe = func(int, int64, int64, float64, float64) {}
	if _, err := (msgBackend{}).Run(context.Background(), withObserve); err == nil {
		t.Error("msg backend accepted an observer")
	}
}

func TestBackendUnknownTechnique(t *testing.T) {
	spec := RunSpec{Technique: "LIFO", N: 64, P: 2, Work: workload.NewConstant(0.01)}
	// The real simulator backends only — other tests register
	// instrumented backends (blocking, counting) that skip validation.
	for _, name := range []string{"sim", "des", "msg"} {
		be, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.Run(context.Background(), spec); err == nil {
			t.Errorf("%s accepted unknown technique", name)
		}
	}
}
