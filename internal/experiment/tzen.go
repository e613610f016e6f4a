package experiment

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// This file drives the TSS-publication experiments (paper §III-A, §IV-A,
// Figures 3 and 4): speedup of SS, CSS, GSS(k) and TSS over a varying
// number of PEs with constant per-task workloads, on a simulated BBN
// GP-1000-like system.

// TzenCurve names one plotted line: a technique plus its parameter.
type TzenCurve struct {
	Label    string // e.g. "GSS(1)"
	Tech     string // technique name for sched.New
	MinChunk int64  // GSS(k)'s k
}

// TzenSpec describes one of the two experiments.
type TzenSpec struct {
	Name     string      // "experiment 1" / "experiment 2"
	N        int64       // number of tasks
	TaskTime float64     // constant workload per task, seconds
	Ps       []int       // PE counts to sweep
	Curves   []TzenCurve // lines of the figure

	// System model for the BBN GP-1000 stand-in: message latency per
	// master↔worker link and a fixed master service time per scheduling
	// operation.
	LinkLatency    float64
	MasterOverhead float64

	// UseMSG selects the full SimGrid-MSG-style simulation (internal/msg)
	// instead of the fast chunk-granularity simulator. The full model is
	// the verification path; the fast path is shape-identical and is used
	// by the benchmarks.
	UseMSG bool
}

// TzenExperiment1 returns the paper's Figure 3 configuration:
// 100,000 tasks of 110 µs; SS, CSS, GSS(1), GSS(80), TSS.
func TzenExperiment1() TzenSpec {
	return TzenSpec{
		Name:     "experiment 1",
		N:        100000,
		TaskTime: 110e-6,
		Ps:       []int{2, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80},
		Curves: []TzenCurve{
			{Label: "SS", Tech: "SS"},
			{Label: "CSS", Tech: "CSS"},
			{Label: "GSS(1)", Tech: "GSS", MinChunk: 1},
			{Label: "GSS(80)", Tech: "GSS", MinChunk: 80},
			{Label: "TSS", Tech: "TSS"},
		},
		LinkLatency:    50e-6,
		MasterOverhead: 5e-6,
	}
}

// TzenExperiment2 returns the paper's Figure 4 configuration:
// 10,000 tasks of 2 ms; GSS(80) is replaced by GSS(5) as in the paper.
func TzenExperiment2() TzenSpec {
	s := TzenExperiment1()
	s.Name = "experiment 2"
	s.N = 10000
	s.TaskTime = 2e-3
	s.Curves[3] = TzenCurve{Label: "GSS(5)", Tech: "GSS", MinChunk: 5}
	return s
}

// TzenPoint is one measured point of a curve.
type TzenPoint struct {
	P int
	metrics.TzenNi
}

// TzenResult holds all curves of one experiment.
type TzenResult struct {
	Spec   TzenSpec
	Curves map[string][]TzenPoint // label -> points, ordered as Spec.Ps
}

// RunTzen sweeps PE counts for every curve of the spec. Cancelling ctx
// aborts the sweep between points.
//
// Fast path and MSG path are the same run description on different
// engine backends: the request/reply round trip of 2 hops over 2 links
// each (worker link + backbone) is a per-operation cost of 4·latency,
// and the master's service time is charged per operation inside the
// dynamics. One runner serves every point, p-major, so the curves of
// one PE count share the msg backend's star platform.
func RunTzen(ctx context.Context, spec TzenSpec) (*TzenResult, error) {
	if spec.N <= 0 || spec.TaskTime <= 0 || len(spec.Ps) == 0 || len(spec.Curves) == 0 {
		return nil, fmt.Errorf("experiment: invalid Tzen spec %+v", spec)
	}
	backend := engine.DefaultBackend
	if spec.UseMSG {
		backend = "msg"
	}
	be, err := engine.New(backend)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", spec.Name, err)
	}
	work := workload.NewConstant(spec.TaskTime)
	seq := workload.Total(work, spec.N)
	points := make([][]TzenPoint, len(spec.Curves)) // by curve, in Ps order
	var runner engine.Runner
	for _, p := range spec.Ps {
		for i, curve := range spec.Curves {
			rs := engine.RunSpec{
				Technique:      curve.Tech,
				N:              spec.N,
				P:              p,
				Work:           work,
				MinChunk:       curve.MinChunk,
				H:              spec.MasterOverhead,
				HInDynamics:    spec.MasterOverhead > 0,
				PerMessageCost: 4 * spec.LinkLatency,
			}
			if runner == nil {
				runner, err = be.NewRunner(rs)
			} else {
				err = runner.Rebind(rs)
			}
			var out *engine.RunResult
			if err == nil {
				out, err = runner.Run(ctx, rs)
			}
			if err != nil {
				return nil, fmt.Errorf("experiment: %s %s p=%d: %w", spec.Name, curve.Label, p, err)
			}
			var computeTotal float64
			for _, c := range out.Compute {
				computeTotal += c
			}
			schedTotal := out.CommTime + out.MasterBusy
			points[i] = append(points[i], TzenPoint{P: p, TzenNi: metrics.TzenNiMetrics(seq, out.Makespan, computeTotal, schedTotal, p)})
		}
	}
	res := &TzenResult{Spec: spec, Curves: make(map[string][]TzenPoint, len(spec.Curves))}
	for i, curve := range spec.Curves {
		res.Curves[curve.Label] = append(res.Curves[curve.Label], points[i]...)
	}
	return res, nil
}
