package engine

import (
	"context"
	"fmt"
)

// MetricsPartial is one replication chunk's worth of run output: the
// per-run scalars of replications [RepLo, RepLo+len(Runs)) of one point,
// in replication order. A PartialSink receives it in one ConsumePartial
// call instead of one Event per run.
//
// Runs aliases a buffer owned by the pipeline (or the cache entry being
// replayed): it is valid only for the duration of the ConsumePartial
// call, and sinks retaining the per-run scalars must copy them out (an
// append into the sink's own storage does exactly that).
type MetricsPartial struct {
	Point int // index into the campaign's points
	RepLo int // first replication index covered by this chunk

	// Runs holds the per-run scalars of replications
	// [RepLo, RepLo+len(Runs)) in replication order.
	Runs []RunMetrics
}

// Len returns the number of runs covered by the partial.
func (p MetricsPartial) Len() int { return len(p.Runs) }

// PartialSink is the optional Sink extension for sinks that do not need
// per-run Events: chunk-granular partials delivered in deterministic
// (point, replication) order carry everything they consume. The choice
// is made per sink — a PartialSink receives one ConsumePartial per chunk
// and no Consume calls, while every other sink of the same campaign
// receives the ordinary per-run events. Aggregates are bit-identical
// either way.
//
// Like Consume, ConsumePartial is invoked from a single goroutine in
// deterministic order, needs no locking, and a returned error aborts
// the campaign. Close semantics are unchanged.
type PartialSink interface {
	Sink
	ConsumePartial(ctx context.Context, p MetricsPartial) error
}

// delivery hands completed chunks to the sinks. It is the one delivery
// stage shared by live campaigns (Stream) and cache replay, so both
// produce the same sink input from the same per-run metrics.
type delivery struct {
	points  []RunSpec
	seedFor func(point, rep int) uint64
	partial []PartialSink
	ordered []Sink
}

func newDelivery(points []RunSpec, seedFor func(point, rep int) uint64, sinks []Sink) *delivery {
	d := &delivery{points: points, seedFor: seedFor}
	for _, s := range sinks {
		if ps, ok := s.(PartialSink); ok {
			d.partial = append(d.partial, ps)
		} else {
			d.ordered = append(d.ordered, s)
		}
	}
	return d
}

// deliver passes the metrics of replications [repLo, repLo+len(runs)) of
// point pi to every sink: one ConsumePartial per PartialSink, then one
// Consume per run for every other sink, with each run's Event built
// here — Spec is the point with the run's derived RNGState. Ordered
// sinks check ctx between runs.
func (d *delivery) deliver(ctx context.Context, pi, repLo int, runs []RunMetrics) error {
	for _, ps := range d.partial {
		if err := ps.ConsumePartial(ctx, MetricsPartial{Point: pi, RepLo: repLo, Runs: runs}); err != nil {
			return fmt.Errorf("engine: sink: %w", err)
		}
	}
	if len(d.ordered) == 0 {
		return nil
	}
	ev := Event{Point: pi, Spec: d.points[pi]}
	for i, m := range runs {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: campaign: %w", err)
		}
		ev.Rep = repLo + i
		ev.Spec.RNGState = d.seedFor(pi, ev.Rep)
		ev.Metrics = m
		for _, s := range d.ordered {
			if err := s.Consume(ctx, ev); err != nil {
				return fmt.Errorf("engine: sink: %w", err)
			}
		}
	}
	return nil
}
