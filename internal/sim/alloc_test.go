package sim

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// arenaConfig builds a hot-path run configuration: exponential workload
// (the Hagerup campaign's), a resettable scheduler and a reusable RNG.
func arenaConfig(t testing.TB, technique string, n int64, p int) (Config, sched.Resetter, *rng.Rand48) {
	t.Helper()
	s, err := sched.New(technique, sched.Params{N: n, P: p, H: 0.5, Mu: 1, Sigma: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.FromState(0x2A5F3C)
	return Config{P: p, Sched: s, Work: workload.NewExponential(1), RNG: r, H: 0.5}, s.(sched.Resetter), r
}

// arenaSizes are the (n, p) points of the allocation gate and its
// benchmark: a small machine, the paper's largest p (the deepest event
// tree) and a p that is not a power of two next to it.
var arenaSizes = []struct {
	n int64
	p int
}{{2048, 8}, {8192, 1000}, {8192, 1024}}

// TestRunIntoAllocationFree pins the arena hot path at zero steady-state
// allocations per run. This is the CI allocation gate for sim.Run: any
// regression (an escaping closure, a fresh slice per run, an event
// queue rebuilt on the heap) fails here before it can show up as a
// throughput loss. The Exponential workload draws chunk sums via the
// Gamma/Erlang samplers, so the RNG path is exercised too.
func TestRunIntoAllocationFree(t *testing.T) {
	for _, technique := range []string{"SS", "GSS", "FAC", "FAC2", "BOLD"} {
		t.Run(technique, func(t *testing.T) {
			for _, size := range arenaSizes {
				t.Run(fmt.Sprintf("p%d", size.p), func(t *testing.T) {
					cfg, reset, r := arenaConfig(t, technique, size.n, size.p)
					arena := new(Arena)
					run := func() {
						reset.Reset()
						r.SetState(0x2A5F3C)
						if _, err := RunInto(cfg, arena); err != nil {
							t.Fatal(err)
						}
					}
					run() // warm the arena buffers
					// The ceiling is exactly 0: the whole point of the arena path.
					if avg := testing.AllocsPerRun(50, run); avg > 0 {
						t.Fatalf("RunInto allocates %.1f times per steady-state run, want 0", avg)
					}
				})
			}
		})
	}
}

// TestRunIntoMatchesRun: the arena path must be bit-identical to the
// allocating path for every field of the result.
func TestRunIntoMatchesRun(t *testing.T) {
	for _, technique := range []string{"SS", "GSS", "TSS", "FAC", "FAC2", "BOLD", "AWF-C", "AF"} {
		t.Run(technique, func(t *testing.T) {
			cfg1, _, _ := arenaConfig(t, technique, 1024, 6)
			want, err := Run(cfg1)
			if err != nil {
				t.Fatal(err)
			}
			cfg2, reset, r := arenaConfig(t, technique, 1024, 6)
			arena := new(Arena)
			// Dirty the arena with a different run first, then reset the
			// scheduler and RNG and replay the reference configuration.
			if _, err := RunInto(cfg2, arena); err != nil {
				t.Fatal(err)
			}
			reset.Reset()
			r.SetState(0x2A5F3C)
			got, err := RunInto(cfg2, arena)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan || got.SchedOps != want.SchedOps ||
				got.CommTime != want.CommTime || got.MasterBusy != want.MasterBusy {
				t.Fatalf("arena result differs: got %+v, want %+v", got, want)
			}
			for w := 0; w < 6; w++ {
				if got.Compute[w] != want.Compute[w] || got.Finish[w] != want.Finish[w] ||
					got.OpsPerWorker[w] != want.OpsPerWorker[w] || got.TasksPerWorker[w] != want.TasksPerWorker[w] {
					t.Fatalf("arena per-worker state differs for worker %d", w)
				}
			}
		})
	}
}

// BenchmarkRun measures the one-shot path (fresh scheduler, fresh result
// per run) — the baseline the arena path is compared against.
func BenchmarkRun(b *testing.B) {
	for _, technique := range []string{"SS", "GSS", "FAC", "BOLD"} {
		b.Run(technique, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := sched.New(technique, sched.Params{N: 2048, P: 8, H: 0.5, Mu: 1, Sigma: 1})
				if err != nil {
					b.Fatal(err)
				}
				cfg := Config{P: 8, Sched: s, Work: workload.NewExponential(1), RNG: rng.FromState(0x2A5F3C), H: 0.5}
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunInto measures the arena path: scheduler Reset + RNG
// SetState + buffer reuse. allocs/op must report 0.
func BenchmarkRunInto(b *testing.B) {
	for _, technique := range []string{"SS", "GSS", "FAC", "BOLD"} {
		b.Run(technique, func(b *testing.B) {
			for _, size := range arenaSizes {
				b.Run(fmt.Sprintf("p%d", size.p), func(b *testing.B) {
					cfg, reset, r := arenaConfig(b, technique, size.n, size.p)
					arena := new(Arena)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						reset.Reset()
						r.SetState(0x2A5F3C)
						if _, err := RunInto(cfg, arena); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
