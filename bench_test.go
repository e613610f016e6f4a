// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations A1-A5 at the end of this file. Each
// figure benchmark regenerates the series the paper reports (at a reduced
// run count so `go test -bench=.` stays tractable; cmd/repro runs the
// full 1000-run configuration) and prints the rows once, alongside the
// maximum relative discrepancy against the pinned reference dataset.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/refdata"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchSeed differs from refdata.Seed, as the paper's simulations used a
// different (unknown) seed than the original publication.
const benchSeed = 20170601

// printOnce guards the per-benchmark row printing so repeated b.N
// iterations do not spam the output.
var printOnce sync.Map

func printSeries(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(text)
	}
}

// --- Figures 3 and 4: the TSS publication experiments -------------------

func benchTzen(b *testing.B, exp int) {
	spec := experiment.TzenExperiment1()
	if exp == 2 {
		spec = experiment.TzenExperiment2()
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTzen(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			text := fmt.Sprintf("\nFigure %d (%s): speedup by number of PEs\n", exp+2, spec.Name)
			for _, c := range spec.Curves {
				text += fmt.Sprintf("  %-8s", c.Label)
				for _, pt := range res.Curves[c.Label] {
					text += fmt.Sprintf(" %6.1f", pt.Speedup)
				}
				text += "\n"
			}
			printSeries(fmt.Sprintf("tzen%d", exp), text)
			last := len(spec.Ps) - 1
			b.ReportMetric(res.Curves["TSS"][last].Speedup, "TSS_speedup_p80")
			b.ReportMetric(res.Curves["SS"][last].Speedup, "SS_speedup_p80")
		}
	}
}

func BenchmarkFigure3_TSSExperiment1(b *testing.B) { benchTzen(b, 1) }
func BenchmarkFigure4_TSSExperiment2(b *testing.B) { benchTzen(b, 2) }

// --- Figures 5-8: the Hagerup wasted-time grid ---------------------------

// benchRuns returns the reduced per-cell run count for a grid benchmark:
// enough for a stable mean, scaled down for the big task counts.
func benchRuns(n int64) int {
	switch {
	case n >= 524288:
		return 5
	case n >= 65536:
		return 10
	default:
		return 40
	}
}

func benchHagerup(b *testing.B, figure int, n int64) {
	spec := experiment.HagerupGrid(benchSeed)
	spec.Ns = []int64{n}
	spec.Runs = benchRuns(n)
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunHagerup(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		text := fmt.Sprintf("\nFigure %d (%d tasks, %d runs): avg wasted time [s] for p=%v\n",
			figure, n, spec.Runs, spec.Ps)
		var maxRel float64
		for _, tech := range spec.Techniques {
			_, means, err := res.Series(tech, n)
			if err != nil {
				b.Fatal(err)
			}
			text += fmt.Sprintf("  %-5s", tech)
			for pi, mean := range means {
				text += fmt.Sprintf(" %10.4g", mean)
				ref, ok := refdata.Wasted(tech, n, spec.Ps[pi])
				if !ok {
					b.Fatalf("missing reference %s/%d/%d", tech, n, spec.Ps[pi])
				}
				// FAC with 2 PEs is the paper's documented outlier.
				if tech == "FAC" && spec.Ps[pi] == 2 {
					continue
				}
				if rel := math.Abs(metrics.RelativeDiscrepancy(mean, ref)); rel > maxRel {
					maxRel = rel
				}
			}
			text += "\n"
		}
		text += fmt.Sprintf("  max |relative discrepancy| vs reference (FAC/2-PE excluded): %.1f%%\n", maxRel)
		text += fmt.Sprintf("  (reduced %d-run sample — sampling noise dominates; the paper-faithful\n", spec.Runs)
		text += "   1000-run values come from 'go run ./cmd/repro hagerup')\n"
		printSeries(fmt.Sprintf("hagerup%d", n), text)
		b.ReportMetric(maxRel, "max_rel_discrepancy_%")
	}
}

func BenchmarkFigure5_Hagerup1024(b *testing.B)   { benchHagerup(b, 5, 1024) }
func BenchmarkFigure6_Hagerup8192(b *testing.B)   { benchHagerup(b, 6, 8192) }
func BenchmarkFigure7_Hagerup65536(b *testing.B)  { benchHagerup(b, 7, 65536) }
func BenchmarkFigure8_Hagerup524288(b *testing.B) { benchHagerup(b, 8, 524288) }

// --- Figure 9: per-run wasted time of FAC, 2 PEs, 524288 tasks -----------

func BenchmarkFigure9_FACPerRun(b *testing.B) {
	spec := experiment.HagerupGrid(benchSeed)
	spec.Techniques = []string{"FAC"}
	spec.Ns = []int64{524288}
	spec.Ps = []int{2}
	spec.Runs = 100
	spec.KeepPerRun = true
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunHagerup(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		c, err := res.Cell("FAC", 524288, 2)
		if err != nil {
			b.Fatal(err)
		}
		kept, excluded := metrics.TrimAbove(c.PerRun, 400)
		text := fmt.Sprintf("\nFigure 9 (FAC, 2 workers, 524288 tasks, %d runs):\n", spec.Runs)
		text += fmt.Sprintf("  mean %.4g s; runs > 400 s: %d; trimmed mean %.4g s (paper: 25.82 s)\n",
			c.Wasted.Mean, excluded, metrics.Mean(kept))
		printSeries("fig9", text)
		b.ReportMetric(c.Wasted.Mean, "mean_wasted_s")
		b.ReportMetric(metrics.Mean(kept), "trimmed_mean_s")
	}
}

// --- Engine: the parallel campaign runner --------------------------------

// BenchmarkCampaignParallel measures the paper's canonical unit of work —
// one 1000-replication grid cell (Table III) — through the engine's
// campaign runner, serial (Workers=1, the shape of the old hand-rolled
// loops) versus fanned out over all cores. The parallel/serial ratio is
// the wall-clock speedup of every Figure 5–8 cell; both variants produce
// bit-identical aggregates.
func BenchmarkCampaignParallel(b *testing.B) {
	spec := engine.CampaignSpec{
		Techniques:   []string{"FAC2"},
		Ns:           []int64{1024},
		Ps:           []int{8},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 1000,
		Seed:         benchSeed,
		SeedPolicy:   engine.SeedFlat,
	}
	run := func(workers int) (*engine.CampaignResult, error) {
		return spec.Execute(context.Background(), engine.ExecConfig{Workers: workers})
	}
	var serialMean, parallelMean float64
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := run(1)
			if err != nil {
				b.Fatal(err)
			}
			serialMean = res.Aggregates[0].Wasted.Mean
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := run(0)
			if err != nil {
				b.Fatal(err)
			}
			parallelMean = res.Aggregates[0].Wasted.Mean
		}
	})
	if serialMean != 0 && parallelMean != 0 && serialMean != parallelMean {
		b.Fatalf("serial mean %v != parallel mean %v", serialMean, parallelMean)
	}
}

// --- Tables ---------------------------------------------------------------

// BenchmarkTableII_ChunkCalculators measures the per-operation cost of
// every technique's chunk calculation (Table II's subjects). Techniques
// with a bounded operation count (STAT issues exactly p chunks) are
// re-created on exhaustion; the construction cost is part of the
// measured loop and negligible for the others.
func BenchmarkTableII_ChunkCalculators(b *testing.B) {
	for _, tech := range sched.Names() {
		b.Run(tech, func(b *testing.B) {
			params := sched.Params{N: 1 << 40, P: 8, H: 0.5, Mu: 1, Sigma: 1}
			s, err := sched.New(tech, params)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Next(i%8, 0) == 0 {
					if s, err = sched.New(tech, params); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTableIII_GridCell measures one full cell of the Table III grid
// (FAC2, 8192 tasks, 64 PEs, one run per iteration).
func BenchmarkTableIII_GridCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := experiment.OneHagerupRun(context.Background(), "FAC2", 8192, 64, 1, 0.5, rng.StreamFor(benchSeed, i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations A1-A5 -------------------------------------------------------

// BenchmarkAblationOverheadAccounting compares the paper's post-hoc h
// accounting with charging h inside the master dynamics (A1).
func BenchmarkAblationOverheadAccounting(b *testing.B) {
	const n, p, h = 8192, 64, 0.5
	run := func(inDynamics bool) (float64, error) {
		var sum float64
		const runs = 20
		for r := 0; r < runs; r++ {
			s, err := sched.New("FAC2", sched.Params{N: n, P: p, H: h, Mu: 1, Sigma: 1})
			if err != nil {
				return 0, err
			}
			res, err := sim.Run(sim.Config{
				P: p, Sched: s, Work: workload.NewExponential(1),
				RNG: rng.StreamFor(benchSeed+1, r),
				H:   h, HInDynamics: inDynamics,
			})
			if err != nil {
				return 0, err
			}
			if inDynamics {
				// h already inside the makespan; only idle counts extra.
				sum += metrics.AverageWasted(res.Makespan, res.Compute, 0, 0)
			} else {
				sum += metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, h)
			}
		}
		return sum / runs, nil
	}
	for i := 0; i < b.N; i++ {
		post, err := run(false)
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := run(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printSeries("a1", fmt.Sprintf(
				"\nAblation A1 (FAC2, 8192x64): wasted %.3g s post-hoc vs %.3g s with h in dynamics\n",
				post, dyn))
			b.ReportMetric(post, "posthoc_wasted_s")
			b.ReportMetric(dyn, "dynamics_wasted_s")
		}
	}
}

// BenchmarkAblationChunkSampling compares the Gamma fast path with exact
// per-task exponential summation (A2).
func BenchmarkAblationChunkSampling(b *testing.B) {
	b.Run("gamma-fast-path", func(b *testing.B) {
		r := rng.New(1)
		w := workload.NewExponential(1)
		for i := 0; i < b.N; i++ {
			_ = w.ChunkTime(0, 1024, r)
		}
	})
	b.Run("exact-erlang-sum", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			_ = rng.ErlangSum(r, 1024, 1)
		}
	})
}

// BenchmarkAblationNetworkCost compares the paper's free network with a
// realistic per-message cost (A3).
func BenchmarkAblationNetworkCost(b *testing.B) {
	const n, p = 8192, 64
	run := func(msgCost float64, seedOff int) float64 {
		s, err := sched.New("FAC2", sched.Params{N: n, P: p, H: 0.5, Mu: 1, Sigma: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			P: p, Sched: s, Work: workload.NewExponential(1),
			RNG:            rng.StreamFor(benchSeed+2, seedOff),
			PerMessageCost: msgCost,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	}
	for i := 0; i < b.N; i++ {
		free := run(0, i)
		lan := run(200e-6, i)
		if i == 0 {
			printSeries("a3", fmt.Sprintf(
				"\nAblation A3 (FAC2, 8192x64): makespan %.4g s free network vs %.4g s with 200us round trips\n",
				free, lan))
		}
	}
}

// BenchmarkExtensionAdaptive runs the future-work techniques (paper §VI)
// on a Hagerup cell (A4).
func BenchmarkExtensionAdaptive(b *testing.B) {
	const n, p = 8192, 64
	for _, tech := range []string{"TAP", "WF", "AWF-B", "AWF-C", "AF"} {
		b.Run(tech, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				w, _, err := experiment.OneHagerupRun(context.Background(), tech, n, p, 1, 0.5, rng.StreamFor(benchSeed+3, i))
				if err != nil {
					b.Fatal(err)
				}
				sum += w
			}
			b.ReportMetric(sum/float64(b.N), "wasted_s")
		})
	}
}

// BenchmarkAblationSimulatorBackend compares the two simulator backends
// on the same scenario (A5): the Hagerup-replica fast simulator vs. the
// full MSG process simulation. Shape equality is asserted by the
// integration tests; this benchmark quantifies the cost ratio.
func BenchmarkAblationSimulatorBackend(b *testing.B) {
	b.Run("fastsim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := sched.New("GSS", sched.Params{N: 2000, P: 8})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(sim.Config{P: 8, Sched: s, Work: workload.NewConstant(0.01)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("msg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec := experiment.TzenExperiment2()
			spec.N = 2000
			spec.Ps = []int{8}
			spec.Curves = spec.Curves[2:3] // GSS(1) only
			spec.UseMSG = true
			if _, err := experiment.RunTzen(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionGSSSweep runs the TSS publication's GSS(k) parameter
// sweep on a Hagerup cell.
func BenchmarkExtensionGSSSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.GSSSweep(context.Background(), 8192, 8, 10, 1, 0.5, benchSeed+4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			text := "\nExtension: GSS(k) sweep (8192 tasks, 8 PEs): wasted [s] per k\n  "
			for j, k := range res.Ks {
				text += fmt.Sprintf(" k=%d: %.3g ", k, res.Wasted[j])
			}
			printSeries("gsssweep", text+"\n")
		}
	}
}

// BenchmarkExtensionCSSSweep runs the TSS publication's CSS chunk-size
// study (optimal k near n/p with speedup ~69 of 72).
func BenchmarkExtensionCSSSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.CSSSweep(context.Background(), 100000, 72, 110e-6, 5e-6, 200e-6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(res.Ks) - 1
			printSeries("csssweep", fmt.Sprintf(
				"\nExtension: CSS(k) study: speedup %.1f at k=%d (publication: 69.2 at 1388)\n",
				res.Speedups[last], res.Ks[last]))
			b.ReportMetric(res.Speedups[last], "speedup_at_n_over_p")
		}
	}
}

// BenchmarkExtensionResilience measures the makespan penalty of one
// worker failure under STAT vs FAC2 (earlier-work [3] scenario).
func BenchmarkExtensionResilience(b *testing.B) {
	const n, p = 4000, 8
	bw, lat := platform.FreeNetwork()
	run := func(tech string, failures []msg.Failure) float64 {
		pl, err := platform.Cluster("b", p, 1.0, bw, lat)
		if err != nil {
			b.Fatal(err)
		}
		workers := make([]string, p)
		for i := range workers {
			workers[i] = fmt.Sprintf("b-%d", i+1)
		}
		s, err := sched.New(tech, sched.Params{N: n, P: p, Mu: 0.01, Sigma: 0})
		if err != nil {
			b.Fatal(err)
		}
		res, err := msg.RunResilientApp(msg.NewEngine(pl), msg.ResilientConfig{
			AppConfig: msg.AppConfig{
				MasterHost: "b-0", WorkerHosts: workers,
				Sched: s, Work: workload.NewConstant(0.01), ReferenceSpeed: 1,
			},
			Failures: failures,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	}
	failures := []msg.Failure{{Worker: 2, AfterChunks: 1}}
	for i := 0; i < b.N; i++ {
		statPenalty := run("STAT", failures) / run("STAT", nil)
		fac2Penalty := run("FAC2", failures) / run("FAC2", nil)
		if i == 0 {
			printSeries("resilience", fmt.Sprintf(
				"\nExtension: one-failure makespan penalty: STAT %.2fx vs FAC2 %.2fx\n",
				statPenalty, fac2Penalty))
			b.ReportMetric(statPenalty, "STAT_penalty_x")
			b.ReportMetric(fac2Penalty, "FAC2_penalty_x")
		}
	}
}
