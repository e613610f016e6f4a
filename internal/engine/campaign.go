package engine

import (
	"context"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Campaign describes a (point × replication) grid of independent runs —
// the shape of every experiment in the paper (1000 replications per grid
// cell, §IV). The runner fans the grid out over a bounded worker pool;
// results are bit-identical for a given seed regardless of Workers or
// completion order, because each run's stream is derived from its
// (point, replication) coordinates and per-run metrics are reduced in
// replication order, never in completion order.
type Campaign struct {
	// Backend names the registered simulation backend; "" selects
	// DefaultBackend.
	Backend string

	// Points are the grid's distinct configurations (technique ×
	// parameters). A point's RNGState is the point's base seed; the
	// per-replication state comes from SeedFor.
	Points []RunSpec

	// Replications is the number of independent runs per point
	// (paper: 1000).
	Replications int

	// Workers bounds the concurrently executing runs; 0 selects
	// GOMAXPROCS.
	Workers int

	// ChunkSize is the number of consecutive replications of one point
	// executed per work item. Larger chunks amortize pipeline overhead;
	// smaller chunks balance load. 0 auto-sizes from the grid and the
	// worker count. Results are bit-identical for every chunk size.
	ChunkSize int

	// SeedFor derives the rand48 state of run (point, rep). Nil selects
	// rng.RunSeed(Points[point].RNGState, rep), the derivation the
	// experiment layer has always used.
	SeedFor func(point, rep int) uint64
}

// RunMetrics are the per-run scalars the campaigns of the paper report.
type RunMetrics struct {
	Wasted   float64 `json:"wasted"` // average wasted time (paper §III-B), H charged per op
	Makespan float64 `json:"makespan"`
	Speedup  float64 `json:"speedup"` // sequential time over makespan
	SchedOps int64   `json:"sched_ops"`
}

// Aggregate summarizes all replications of one campaign point.
type Aggregate struct {
	Spec RunSpec // the point, with RNGState as passed in

	Wasted   metrics.Summary
	Makespan metrics.Summary
	Speedup  metrics.Summary
	MeanOps  float64 // mean scheduling operations per run

	PerRun []RunMetrics // per-run metrics, replication order (ExecConfig.KeepPerRun)
}

// CampaignResult holds one aggregate per campaign point, aligned with
// Campaign.Points.
type CampaignResult struct {
	Aggregates []Aggregate

	// Overall is the deterministic roll-up of the per-point wasted-time
	// accumulators, merged in point order.
	Overall metrics.Accumulator
}

// Run executes the campaign and aggregates every point. It is a buffered
// view over Stream: an aggregating sink consumes the ordered run
// stream, so the aggregates are bit-identical to what any other sink
// arrangement observes. The first run error aborts the remaining grid
// and is returned; cancelling ctx aborts it with an error wrapping
// ctx.Err().
func (c Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	return c.RunWith(ctx)
}

// RunWith executes the campaign like Run while additionally streaming
// every run event to the given sinks (e.g. a CSV writer exporting raw
// per-run data alongside the aggregation).
func (c Campaign) RunWith(ctx context.Context, sinks ...Sink) (*CampaignResult, error) {
	agg := newAggregateSink(c.Points, c.Replications, false)
	if err := c.Stream(ctx, append([]Sink{agg}, sinks...)...); err != nil {
		return nil, err
	}
	return &CampaignResult{Aggregates: agg.Aggregates(), Overall: agg.Overall()}, nil
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
