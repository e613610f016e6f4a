// Integration tests pinning the paper's findings: each test asserts the
// qualitative result ("shape") of one evaluation artifact, per the
// experiment index in cmd/repro's package doc.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/refdata"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestFigure5Shape runs a reduced Figure 5 grid and checks the relative
// discrepancy against the pinned reference stays within the paper's
// bound for that figure (15% at 1024 tasks) — the reproducibility
// criterion of §IV-B1.
func TestFigure5Shape(t *testing.T) {
	spec := experiment.HagerupGrid(benchSeed)
	spec.Ns = []int64{1024}
	spec.Runs = 200
	res, err := experiment.RunHagerup(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range spec.Techniques {
		for _, p := range spec.Ps {
			c, err := res.Cell(tech, 1024, p)
			if err != nil {
				t.Fatal(err)
			}
			ref, ok := refdata.Wasted(tech, 1024, p)
			if !ok {
				t.Fatalf("missing reference %s/%d", tech, p)
			}
			rel := metrics.RelativeDiscrepancy(c.Wasted.Mean, ref)
			if math.Abs(rel) > 15 {
				t.Errorf("%s p=%d: relative discrepancy %.1f%% exceeds the paper's 15%% bound (sim %.3g vs ref %.3g)",
					tech, p, rel, c.Wasted.Mean, ref)
			}
		}
	}
}

// TestHagerupOrdering pins the per-cell ordering facts the paper's
// figures exhibit at 8192 tasks: SS worst at small p (overhead-bound),
// BOLD/FAC/FAC2 in the leading group, and everything converging at
// p = n/8 scale.
func TestHagerupOrdering(t *testing.T) {
	spec := experiment.HagerupGrid(benchSeed + 1)
	spec.Ns = []int64{8192}
	spec.Runs = 100
	res, err := experiment.RunHagerup(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	get := func(tech string, p int) float64 {
		c, err := res.Cell(tech, 8192, p)
		if err != nil {
			t.Fatal(err)
		}
		return c.Wasted.Mean
	}
	for _, p := range []int{2, 8, 64} {
		ss := get("SS", p)
		for _, tech := range []string{"FAC", "FAC2", "BOLD", "GSS", "TSS", "FSC"} {
			if v := get(tech, p); v >= ss {
				t.Errorf("p=%d: %s wasted %.3g >= SS %.3g", p, tech, v, ss)
			}
		}
		if bold, stat := get("BOLD", p), get("STAT", p); bold >= stat {
			t.Errorf("p=%d: BOLD %.3g >= STAT %.3g", p, bold, stat)
		}
	}
	// Convergence at p=1024 (each PE gets ~8 tasks): all techniques
	// within a factor 4 band except SS's residual overhead.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, tech := range []string{"STAT", "FSC", "GSS", "TSS", "FAC", "FAC2", "BOLD"} {
		v := get(tech, 1024)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi > 4*lo {
		t.Errorf("p=1024 cluster too wide: [%.3g, %.3g]", lo, hi)
	}
}

// TestFigure9OutlierAnalysis reproduces §IV-B4's finding: FAC with 2 PEs
// and 524288 tasks has rare extreme runs; excluding runs above 400 s
// drops the mean substantially toward the paper's 25.82 s scale.
func TestFigure9OutlierAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("long: 300 runs of a 524288-task simulation")
	}
	spec := experiment.HagerupGrid(benchSeed)
	spec.Techniques = []string{"FAC"}
	spec.Ns = []int64{524288}
	spec.Ps = []int{2}
	spec.Runs = 300
	spec.KeepPerRun = true
	res, err := experiment.RunHagerup(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.Cell("FAC", 524288, 2)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := metrics.TrimAbove(c.PerRun, 400)
	trimmed := metrics.Mean(kept)
	if trimmed <= 0 || trimmed > 60 {
		t.Errorf("trimmed mean %.3g s not in the paper's scale (25.82 s)", trimmed)
	}
	// The trimmed mean must not exceed the raw mean, and the max run
	// shows the heavy tail the paper's Figure 9 displays.
	if trimmed > c.Wasted.Mean {
		t.Errorf("trimmed mean %.3g > raw mean %.3g", trimmed, c.Wasted.Mean)
	}
	if c.Wasted.Max < 2*c.Wasted.Median {
		t.Errorf("no heavy tail: max %.3g vs median %.3g", c.Wasted.Max, c.Wasted.Median)
	}
}

// TestFigures3And4Verdict reproduces the §IV-A conclusion: CSS and TSS
// match the original publication's curves, SS diverges strongly.
func TestFigures3And4Verdict(t *testing.T) {
	for exp, spec := range map[int]experiment.TzenSpec{
		1: experiment.TzenExperiment1(),
		2: experiment.TzenExperiment2(),
	} {
		res, err := experiment.RunTzen(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		last := len(spec.Ps) - 1
		for _, label := range []string{"CSS", "TSS"} {
			ref, _ := refdata.TzenSpeedup(exp, label)
			sim := res.Curves[label][last].Speedup
			rel := math.Abs(metrics.RelativeDiscrepancy(sim, ref[last]))
			if rel > 25 {
				t.Errorf("experiment %d %s: |rel| = %.1f%%, paper found these reproduce", exp, label, rel)
			}
		}
		// Experiment 1's SS diverges: the original saturates at ~9 on the
		// BBN GP-1000; the simulation does not reproduce that value.
		if exp == 1 {
			ref, _ := refdata.TzenSpeedup(1, "SS")
			sim := res.Curves["SS"][last].Speedup
			rel := math.Abs(metrics.RelativeDiscrepancy(sim, ref[last]))
			if rel < 25 {
				t.Errorf("experiment 1 SS: |rel| = %.1f%%, paper found SS does NOT reproduce", rel)
			}
		}
	}
}

// TestMasterWorkerArchitecture (X1) exercises the paper's Figure 1
// protocol on the MSG stack end to end and checks the protocol
// invariants: every worker requests, executes, re-requests and is
// finalized; the master performs exactly ops+p message exchanges.
func TestMasterWorkerArchitecture(t *testing.T) {
	const n, p = 500, 5
	bw, lat := platform.FreeNetwork()
	pl, err := platform.Cluster("x", p, 1.0, bw, lat)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]string, p)
	for i := range workers {
		workers[i] = fmt.Sprintf("x-%d", i+1)
	}
	s, err := sched.New("GSS", sched.Params{N: n, P: p})
	if err != nil {
		t.Fatal(err)
	}
	res, err := msg.RunApp(msg.NewEngine(pl), msg.AppConfig{
		MasterHost:  "x-0",
		WorkerHosts: workers,
		Sched:       s,
		Work:        workload.NewConstant(0.01),
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks, ops int64
	for w := 0; w < p; w++ {
		tasks += res.TasksPerWorker[w]
		ops += res.OpsPerWorker[w]
		if res.OpsPerWorker[w] == 0 {
			t.Errorf("worker %d never got work", w)
		}
	}
	if tasks != n {
		t.Errorf("tasks executed = %d, want %d", tasks, n)
	}
	if ops != res.SchedOps {
		t.Errorf("ops mismatch: %d vs %d", ops, res.SchedOps)
	}
}

// TestFigure2InformationModel (X2) checks that the experiment specs
// carry exactly the information the paper's Figure 2 requires and reject
// incomplete configurations.
func TestFigure2InformationModel(t *testing.T) {
	// Application information: task count, technique, distribution with
	// µ/σ; execution information: number of runs, measured value.
	spec := experiment.HagerupGrid(1)
	if err := spec.Validate(); err != nil {
		t.Fatalf("canonical grid invalid: %v", err)
	}
	// Missing pieces must be rejected.
	for _, mutate := range []func(*experiment.HagerupSpec){
		func(s *experiment.HagerupSpec) { s.Techniques = nil },
		func(s *experiment.HagerupSpec) { s.Ns = nil },
		func(s *experiment.HagerupSpec) { s.Ps = nil },
		func(s *experiment.HagerupSpec) { s.Runs = 0 },
		func(s *experiment.HagerupSpec) { s.Mu = 0 },
		func(s *experiment.HagerupSpec) { s.H = -1 },
	} {
		bad := experiment.HagerupGrid(1)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("incomplete spec accepted: %+v", bad)
		}
	}
	// System information: the workload spec validates its parameters.
	if _, err := (workload.Spec{Kind: "exponential", P1: -1}).Build(); err == nil {
		t.Error("invalid distribution accepted")
	}
}
