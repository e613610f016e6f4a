package sim

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestFastLoopEligibility(t *testing.T) {
	base := Config{P: 4, StartTimes: []float64{0, 1, 2, 3}, H: 0.5}
	if !fastLoopEligible(base) {
		t.Error("paper-faithful config (uneven starts, h post hoc) not eligible")
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"speeds", func(c *Config) { c.Speeds = []float64{1, 1, 1, 1} }},
		{"observe", func(c *Config) { c.Observe = func(int, int64, int64, float64, float64) {} }},
		{"h-in-dynamics", func(c *Config) { c.HInDynamics = true }},
		{"per-message-cost", func(c *Config) { c.PerMessageCost = 0.001 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if fastLoopEligible(cfg) {
			t.Errorf("%s: config with optional dynamics eligible for fast loop", tc.name)
		}
	}
}

// sameResult requires bitwise equality of every field — the fast loop's
// contract is bit-identical output, not approximate agreement.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Makespan != b.Makespan || a.SchedOps != b.SchedOps ||
		a.CommTime != b.CommTime || a.MasterBusy != b.MasterBusy {
		t.Fatalf("%s: scalars diverged: %+v vs %+v", label, a, b)
	}
	for w := range a.Compute {
		if a.Compute[w] != b.Compute[w] || a.Finish[w] != b.Finish[w] ||
			a.OpsPerWorker[w] != b.OpsPerWorker[w] || a.TasksPerWorker[w] != b.TasksPerWorker[w] {
			t.Fatalf("%s: worker %d diverged", label, w)
		}
	}
}

// TestFastLoopMatchesGenericLoop drives the same simulation through the
// specialized and the generic inner loop and requires bit-identical
// results. The generic loop is forced two ways that are mathematical
// identities: unit Speeds (exec/1.0 is bit-exact) and a no-op Observe.
// The PE counts span a single worker, powers and non-powers of two, and
// more workers than most techniques hand out chunks to.
func TestFastLoopMatchesGenericLoop(t *testing.T) {
	const n = 4096
	pattern := []float64{0, 0.5, 0, 1.25, 0, 0, 2, 0}

	for _, p := range []int{1, 8, 13, 1000} {
		unit := make([]float64, p)
		starts := make([]float64, p)
		for i := range unit {
			unit[i] = 1
			starts[i] = pattern[i%len(pattern)]
		}
		for _, tech := range sched.Names() {
			for _, withStarts := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					label := fmt.Sprintf("%s/p%d", tech, p)
					run := func(mut func(*Config)) *Result {
						cfg := Config{
							P:     p,
							Sched: mustSched(t, tech, sched.Params{N: n, P: p, H: 0.5, Mu: 1, Sigma: 1}),
							Work:  workload.NewExponential(1),
							RNG:   rng.FromState(rng.RunSeed(seed, 0)),
							H:     0.5,
						}
						if withStarts {
							cfg.StartTimes = starts
						}
						if mut != nil {
							mut(&cfg)
						}
						if !fastLoopEligible(cfg) == (mut == nil) {
							t.Fatalf("%s: eligibility flipped", label)
						}
						res, err := Run(cfg)
						if err != nil {
							t.Fatalf("Run(%s): %v", label, err)
						}
						return res
					}
					fast := run(nil)
					viaSpeeds := run(func(c *Config) { c.Speeds = unit })
					viaObserve := run(func(c *Config) {
						c.Observe = func(int, int64, int64, float64, float64) {}
					})
					sameResult(t, label+"/unit-speeds", fast, viaSpeeds)
					sameResult(t, label+"/observe", fast, viaObserve)
				}
			}
		}
	}
}
