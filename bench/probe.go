package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The unit-cost probes time, in isolation on fixed inputs, the stages no
// workload calls through a surface the benchmark can wrap: a scheduler's
// chunk calculation, aggregation, and replay from a cache entry. They
// run in every traced run, the same in each, so a change to one of these
// stages moves its probe whatever the workload. Every other per-layer
// time comes from the traced window itself.

// probeSeed fixes the probes' inputs independently of the workload seed.
const probeSeed = 1

// probe runs every unit-cost probe and returns its per-layer metrics.
func probe(ctx context.Context) (map[string]float64, error) {
	m := make(map[string]float64)
	if err := probeSched(m); err != nil {
		return nil, err
	}
	if err := probeEngine(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeSched drives each verified technique's chunk calculator alone
// over hagerup-grid's cells: Next and Report until the loop is
// exhausted, then Reset.
func probeSched(m map[string]float64) error {
	const reps = 20
	for _, tech := range sched.VerifiedNames() {
		var ops int64
		var busy time.Duration
		for _, n := range hagerupNs {
			for _, p := range experiment.HagerupGrid(probeSeed).Ps {
				spec := engine.RunSpec{Technique: tech, N: n, P: p, Work: workload.NewExponential(1), H: 0.5}
				s, err := spec.Scheduler()
				if err != nil {
					return err
				}
				r, ok := s.(sched.Resetter)
				if !ok {
					return fmt.Errorf("sched probe: %s cannot be reset", tech)
				}
				start := time.Now()
				for i := 0; i < reps; i++ {
					r.Reset()
					now := 0.0
					for w := 0; ; w = (w + 1) % p {
						c := s.Next(w, now)
						if c == 0 {
							break
						}
						now += float64(c)
						s.Report(w, c, float64(c), now)
					}
					ops += s.Chunks()
				}
				busy += time.Since(start)
			}
		}
		m["sched.ns_per_op."+tech] = frac(float64(busy), float64(ops))
	}
	return nil
}

// probeEngine times two of the engine's per-run stages on the fleet
// workloads' campaign shape: aggregation, and replay with a JSONL sink
// from a warm in-memory store.
func probeEngine(ctx context.Context, m map[string]float64) error {
	const reps = 40
	spec := fleetSpec(probeSeed, fleetReps, "")
	mem := cache.NewMemory()
	res, err := spec.Execute(ctx, engine.ExecConfig{Workers: 1, KeepPerRun: true, Cache: mem})
	if err != nil {
		return err
	}
	var events []engine.Event
	for pi, agg := range res.Aggregates {
		for rep, rm := range agg.PerRun {
			events = append(events, engine.Event{Point: pi, Rep: rep, Spec: agg.Spec, Metrics: rm})
		}
	}
	var aggNs, replayNs time.Duration
	for i := 0; i < reps; i++ {
		agg, err := spec.NewAggregator(false)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, ev := range events {
			if err := agg.Consume(ctx, ev); err != nil {
				return err
			}
		}
		aggNs += time.Since(start)
		if err := agg.Close(); err != nil {
			return err
		}
		start = time.Now()
		if _, err := spec.Execute(ctx, engine.ExecConfig{Workers: 1, Cache: mem,
			Sinks: []engine.Sink{engine.NewJSONLSink(newHashWriter())}}); err != nil {
			return err
		}
		replayNs += time.Since(start)
	}
	n := float64(reps * len(events))
	m["engine.aggregate_ns_per_run"] = float64(aggNs) / n
	m["engine.replay_ns_per_run"] = float64(replayNs) / n
	return nil
}
