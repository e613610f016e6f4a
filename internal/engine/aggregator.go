package engine

import (
	"context"
	"fmt"

	"repro/internal/metrics"
)

// Aggregator folds an ordered event stream into a CampaignResult. It is
// the one aggregation behind CampaignSpec.Execute, cache replay and
// client-side aggregation: a consumer of a remote result stream
// (per-run metrics decoded from JSON Lines) feeds the events through an
// Aggregator and obtains aggregates bit-identical to the ones the
// producing server computed, because both sides run this same fold over
// the same metrics in the same (point, replication) order.
//
// Runs arrive in replication order, so the per-run scalars (32 bytes
// per run, not full RunResults) buffer in the exact sequence a serial
// execution produces; summarizing them yields aggregates bit-identical
// to the historical buffered path. The online wasted-time accumulators
// feed the campaign's streaming Overall roll-up.
//
// Consume rejects an event whose technique, n or p differ from its
// point's, so rows of another grid are never folded in, and Close
// returns an error if any grid point saw fewer events than the spec's
// replication count, so a truncated stream can never silently yield
// partial aggregates.
type Aggregator struct {
	points     []RunSpec
	reps       int
	keepPerRun bool // expose per-run metrics in the Aggregates

	wasted []metrics.Accumulator
	ops    []int64
	perRun [][]RunMetrics
}

// NewAggregator returns an Aggregator for the spec's grid. With
// keepPerRun, the per-run metrics are retained in each Aggregate (the
// paper's Figure 9 analysis needs them).
func (s CampaignSpec) NewAggregator(keepPerRun bool) (*Aggregator, error) {
	points, err := s.Points()
	if err != nil {
		return nil, err
	}
	return newAggregator(points, s.Replications, keepPerRun), nil
}

// newAggregator folds reps replications of each of the expanded points.
func newAggregator(points []RunSpec, reps int, keepPerRun bool) *Aggregator {
	a := &Aggregator{
		points:     points,
		reps:       reps,
		keepPerRun: keepPerRun,
		wasted:     make([]metrics.Accumulator, len(points)),
		ops:        make([]int64, len(points)),
		perRun:     make([][]RunMetrics, len(points)),
	}
	for i := range points {
		a.perRun[i] = make([]RunMetrics, 0, reps)
	}
	return a
}

// Consume implements Sink. Besides the order check every fold makes, it
// rejects an event whose cell (technique, n, p) is not its point's: a
// decoded JSONL row from another grid must not be folded in silently.
func (a *Aggregator) Consume(_ context.Context, ev Event) error {
	if pi := ev.Point; pi >= 0 && pi < len(a.points) {
		if pt := a.points[pi]; ev.Spec.Technique != pt.Technique || ev.Spec.N != pt.N || ev.Spec.P != pt.P {
			return fmt.Errorf("engine: aggregate sink: point %d replication %d is %s n=%d p=%d, want %s n=%d p=%d",
				pi, ev.Rep, ev.Spec.Technique, ev.Spec.N, ev.Spec.P, pt.Technique, pt.N, pt.P)
		}
	}
	return a.fold(ev.Point, ev.Rep, []RunMetrics{ev.Metrics})
}

// ConsumePartial implements PartialSink, so an Aggregator attached to a
// live campaign receives one partial per chunk instead of one event per
// run: chunk partials fold into the same per-point state the event path
// feeds, bit-identically.
func (a *Aggregator) ConsumePartial(_ context.Context, p MetricsPartial) error {
	return a.fold(p.Point, p.RepLo, p.Runs)
}

// fold appends the metrics of replications [repLo, repLo+len(runs)) of
// point pi. Requiring repLo to equal the count seen so far, together
// with Close's full-count check, catches every skipped or doubled run.
func (a *Aggregator) fold(pi, repLo int, runs []RunMetrics) error {
	if pi < 0 || pi >= len(a.points) {
		return fmt.Errorf("engine: aggregate sink: point %d out of range", pi)
	}
	if repLo != len(a.perRun[pi]) {
		return fmt.Errorf("engine: aggregate sink: point %d got replication %d, want %d (runs out of order)",
			pi, repLo, len(a.perRun[pi]))
	}
	a.perRun[pi] = append(a.perRun[pi], runs...)
	for _, m := range runs {
		a.wasted[pi].Add(m.Wasted)
		a.ops[pi] += m.SchedOps
	}
	return nil
}

// Close implements Sink, validating that every point saw its full
// replication count.
func (a *Aggregator) Close() error {
	for pi := range a.points {
		if got := len(a.perRun[pi]); got != a.reps {
			return fmt.Errorf("engine: aggregate sink: point %d saw %d of %d replications", pi, got, a.reps)
		}
	}
	return nil
}

// Result assembles the campaign result from the consumed events. Call it
// after Close has succeeded.
func (a *Aggregator) Result() *CampaignResult {
	return &CampaignResult{Aggregates: a.aggregates(), Overall: a.overall()}
}

// aggregates assembles the final per-point aggregates by summarizing the
// retained per-run scalars in replication order — bit-identical to the
// historical buffered path for every statistic, including the two-pass
// standard deviation and the median.
func (a *Aggregator) aggregates() []Aggregate {
	out := make([]Aggregate, len(a.points))
	vals := make([]float64, a.reps)
	summarize := func(runs []RunMetrics, get func(RunMetrics) float64) metrics.Summary {
		for i, m := range runs {
			vals[i] = get(m)
		}
		return metrics.Summarize(vals)
	}
	for pi := range a.points {
		runs := a.perRun[pi]
		agg := Aggregate{
			Spec:     a.points[pi],
			Wasted:   summarize(runs, func(m RunMetrics) float64 { return m.Wasted }),
			Makespan: summarize(runs, func(m RunMetrics) float64 { return m.Makespan }),
			Speedup:  summarize(runs, func(m RunMetrics) float64 { return m.Speedup }),
			MeanOps:  float64(a.ops[pi]) / float64(a.reps),
		}
		if a.keepPerRun {
			agg.PerRun = runs
		}
		out[pi] = agg
	}
	return out
}

// overall merges the per-point wasted-time accumulators in point order —
// a deterministic cross-partition roll-up of the whole campaign.
func (a *Aggregator) overall() metrics.Accumulator {
	var acc metrics.Accumulator
	for pi := range a.points {
		acc.Merge(a.wasted[pi])
	}
	return acc
}
