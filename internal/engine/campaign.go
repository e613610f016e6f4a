package engine

import (
	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunMetrics are the per-run scalars the campaigns of the paper report.
type RunMetrics struct {
	Wasted   float64 `json:"wasted"` // average wasted time (paper §III-B), H charged per op
	Makespan float64 `json:"makespan"`
	Speedup  float64 `json:"speedup"` // sequential time over makespan
	SchedOps int64   `json:"sched_ops"`
}

// Aggregate summarizes all replications of one campaign point.
type Aggregate struct {
	Spec RunSpec // the point as CampaignSpec.Points expands it

	Wasted   metrics.Summary
	Makespan metrics.Summary
	Speedup  metrics.Summary
	MeanOps  float64 // mean scheduling operations per run

	PerRun []RunMetrics // per-run metrics, replication order (ExecConfig.KeepPerRun)
}

// CampaignResult holds one aggregate per campaign point, aligned with
// CampaignSpec.Points.
type CampaignResult struct {
	Aggregates []Aggregate

	// Overall is the deterministic roll-up of the per-point wasted-time
	// accumulators, merged in point order.
	Overall metrics.Accumulator
}

// pointMetrics reduces one run result to the campaign's per-run scalars.
func pointMetrics(spec RunSpec, res *RunResult) RunMetrics {
	m := RunMetrics{
		Wasted:   metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, spec.H),
		Makespan: res.Makespan,
		SchedOps: res.SchedOps,
	}
	if res.Makespan > 0 {
		m.Speedup = workload.Total(spec.Work, spec.N) / res.Makespan
	}
	return m
}
