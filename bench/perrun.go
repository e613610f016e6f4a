package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/workload"
)

// perrun-export is the raw-data export `dlsim -out x.jsonl` performs: 2M
// cheap runs streamed through one JSON Lines sink, so ordered delivery,
// reordering, encoding and aggregation — not simulation — dominate. It
// takes the engine's ordered path where hagerup-grid takes the fast one.
// Like hagerup-grid, a round is one tenth of the export: replications
// [20000k, 20000k+20000) of every point.

const perrunSliceReps = 20000

func perrunSpec(e env) engine.CampaignSpec {
	s := engine.CampaignSpec{
		Techniques:   []string{"STAT", "CSS", "FAC2", "GSS", "TSS"},
		Ns:           []int64{256},
		Ps:           []int{4, 16},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: max(1, perrunSliceReps/e.scale),
		Seed:         e.seed,
	}
	if e.tr != nil {
		s.Backend = tracedSimName
	}
	return s
}

type perrunRun struct {
	e    env
	spec engine.CampaignSpec
	sliced
	bytes int64 // JSONL bytes of slice 0, the window's first round
	calls []Span
	sinks []*timingSink
}

func setupPerrun(ctx context.Context, e env) (instance, error) {
	p := &perrunRun{e: e, spec: perrunSpec(e), sliced: newSliced("perrun-export", replicationSlices)}
	warm := p.spec
	warm.Replications = max(1, warm.Replications*replicationSlices/warmUpDivisor)
	if _, _, err := exportJSONL(ctx, warm, e.workers, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// exportJSONL executes spec with one JSONL sink writing into a hash and
// returns the stream's digest and length. ts, when non-nil, is wrapped
// around the sink.
func exportJSONL(ctx context.Context, spec engine.CampaignSpec, workers int, ts *timingSink) (string, int64, error) {
	hw := newHashWriter()
	var sink engine.Sink = engine.NewJSONLSink(hw)
	if ts != nil {
		ts.inner = sink
		sink = ts
	}
	if _, err := spec.Execute(ctx, engine.ExecConfig{Workers: workers, Sinks: []engine.Sink{sink}}); err != nil {
		return "", 0, err
	}
	return hw.sum(), hw.n, nil
}

// slice returns the campaign of slice k.
func (p *perrunRun) slice(k int, backend string) engine.CampaignSpec {
	spec := p.spec
	spec.RepOffset = k * spec.Replications
	spec.Backend = backend
	return spec
}

func (p *perrunRun) round(ctx context.Context) (roundOut, error) {
	k := p.sliced.next()
	var ts *timingSink
	var start int64
	if p.e.tr != nil {
		ts = &timingSink{}
		p.sinks = append(p.sinks, ts)
		start = p.e.tr.now()
	}
	digest, n, err := exportJSONL(ctx, p.slice(k, p.spec.Backend), p.e.workers, ts)
	if err != nil {
		return roundOut{}, err
	}
	if p.e.tr != nil {
		sp := Span{Name: "engine.campaign", Start: start, End: p.e.tr.now()}
		sp.ID = p.e.tr.Add(sp)
		p.calls = append(p.calls, sp)
	}
	p.sliced.record(k, digest)
	if k == 0 {
		p.bytes = n
	}
	return roundOut{runs: int64(p.spec.GridPoints() * p.spec.Replications), ops: 1}, nil
}

func (p *perrunRun) verify(ctx context.Context) (int, []string, error) {
	return p.sliced.check(p.e, p.e.seed, func(k int) (string, error) {
		d, _, err := exportJSONL(ctx, p.slice(k, ""), 1, nil)
		if err != nil {
			return "", fmt.Errorf("perrun-export reference: %w", err)
		}
		return d, nil
	})
}

func (p *perrunRun) close() {}

func (p *perrunRun) layers(w window) (map[string]float64, error) {
	m := simLayers(w, p.e.workers, p.calls)
	var busy, wait, events float64
	for _, s := range p.sinks {
		busy += float64(s.busy)
		wait += float64(s.wait())
		events += float64(s.events)
	}
	m["engine.sink_busy_frac"] = frac(busy, float64(w.dur))
	m["engine.sink_wait_frac"] = frac(wait, float64(w.dur))
	m["engine.jsonl_ns_per_run"] = frac(busy, events)
	m["engine.jsonl_bytes"] = float64(p.bytes)
	return m, nil
}
