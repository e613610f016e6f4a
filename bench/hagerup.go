package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/refdata"
)

// hagerup-grid is the paper's own campaign at the paper's run count: the
// Table III slice n ∈ {1024, 8192} of the Hagerup grid, 8 techniques ×
// 5 PE counts × 1000 runs, aggregate-only on the sim backend, so the
// engine takes its aggregate fast path. A round is one tenth of the
// campaign — replications [100k, 100k+100) of every cell — so ten
// rounds run exactly the campaign's runs and a window yields a median
// over many rounds instead of one 10-second sample.

var hagerupNs = []int64{1024, 8192}

const (
	// replicationSlices is how many rounds of hagerup-grid and
	// perrun-export make up the whole campaign.
	replicationSlices = 10
	hagerupSliceRuns  = 100
)

// hagerupSpec is the campaign of one slice; its RepOffset is set per
// round.
func hagerupSpec(e env) engine.CampaignSpec {
	h := experiment.HagerupGrid(e.seed)
	h.Ns = hagerupNs
	h.Runs = max(1, hagerupSliceRuns/e.scale)
	if e.tr != nil {
		h.Backend = tracedSimName
	}
	return h.CampaignSpec()
}

type hagerupRun struct {
	e    env
	spec engine.CampaignSpec
	sliced
	wasted map[int][]metrics.Summary // per slice: each cell's wasted time
	calls  []Span                    // traced: one span per campaign
}

func setupHagerup(ctx context.Context, e env) (instance, error) {
	if e.seed == refdata.Seed {
		return nil, fmt.Errorf("seed %d is the reference dataset's seed; the paper checks need an independent sample", e.seed)
	}
	h := &hagerupRun{e: e, spec: hagerupSpec(e), sliced: newSliced("hagerup-grid", replicationSlices), wasted: make(map[int][]metrics.Summary)}
	warm := h.spec
	warm.Replications = max(1, warm.Replications*replicationSlices/warmUpDivisor)
	if _, err := warm.Execute(ctx, engine.ExecConfig{Workers: e.workers}); err != nil {
		return nil, err
	}
	return h, nil
}

// slice executes slice k of the campaign.
func (h *hagerupRun) slice(ctx context.Context, k, workers int, backend string) (*engine.CampaignResult, error) {
	spec := h.spec
	spec.RepOffset = k * spec.Replications
	spec.Backend = backend
	return spec.Execute(ctx, engine.ExecConfig{Workers: workers})
}

func (h *hagerupRun) round(ctx context.Context) (roundOut, error) {
	k := h.sliced.next()
	var start int64
	if h.e.tr != nil {
		start = h.e.tr.now()
	}
	res, err := h.slice(ctx, k, h.e.workers, h.spec.Backend)
	if err != nil {
		return roundOut{}, err
	}
	if h.e.tr != nil {
		sp := Span{Name: "engine.campaign", Start: start, End: h.e.tr.now()}
		sp.ID = h.e.tr.Add(sp)
		h.calls = append(h.calls, sp)
	}
	h.sliced.record(k, digestAggregates(res.Aggregates))
	h.wasted[k] = cellWasted(res.Aggregates)
	return roundOut{runs: int64(len(res.Aggregates) * h.spec.Replications), ops: 1}, nil
}

func (h *hagerupRun) verify(ctx context.Context) (int, []string, error) {
	failed, problems, err := h.sliced.check(h.e, h.e.seed, func(k int) (string, error) {
		res, err := h.slice(ctx, k, 1, "")
		if err != nil {
			return "", fmt.Errorf("hagerup-grid reference: %w", err)
		}
		return digestAggregates(res.Aggregates), nil
	})
	if err != nil || h.e.scale != 1 || h.sliced.rounds() == 0 {
		return failed, problems, err
	}
	// The paper judges means over all 1000 runs: complete the slices the
	// window did not reach, then pool the slices of each cell.
	for k := 0; k < replicationSlices; k++ {
		if _, ok := h.wasted[k]; ok {
			continue
		}
		res, err := h.slice(ctx, k, h.e.workers, "")
		if err != nil {
			return 0, nil, err
		}
		h.wasted[k] = cellWasted(res.Aggregates)
	}
	points, err := h.spec.Points()
	if err != nil {
		return 0, nil, err
	}
	cells := make([]metrics.Summary, len(points))
	for i := range points {
		parts := make([]metrics.Summary, replicationSlices)
		for k := range parts {
			parts[k] = h.wasted[k][i]
		}
		cells[i] = pool(parts)
	}
	if paper := hagerupPaperChecks(points, cells); len(paper) > 0 {
		// Every round contributed to the judged means.
		for _, p := range paper {
			problems = append(problems, "hagerup-grid: "+p)
		}
		failed = h.sliced.rounds()
	}
	return failed, problems, nil
}

func (h *hagerupRun) close() {}

func (h *hagerupRun) layers(w window) (map[string]float64, error) {
	return simLayers(w, h.e.workers, h.calls), nil
}

func cellWasted(aggs []engine.Aggregate) []metrics.Summary {
	out := make([]metrics.Summary, len(aggs))
	for i, a := range aggs {
		out[i] = a.Wasted
	}
	return out
}

// pool combines the count, mean and sample standard deviation of
// disjoint samples into those of their union.
func pool(parts []metrics.Summary) metrics.Summary {
	var n int
	var sum float64
	for _, p := range parts {
		n += p.N
		sum += p.Mean * float64(p.N)
	}
	mean := sum / float64(n)
	var ss float64
	for _, p := range parts {
		d := p.Mean - mean
		ss += float64(p.N-1)*p.Std*p.Std + float64(p.N)*d*d
	}
	return metrics.Summary{N: n, Mean: mean, Std: math.Sqrt(ss / float64(n-1))}
}

// simLayers derives the engine and sim per-layer metrics of a window run
// on the sim-traced backend. calls are the spans of the engine calls the
// window made. Counts are the first round's, which runs the same inputs
// in every run with the same seed; times and fractions cover the whole
// window.
func simLayers(w window, workers int, calls []Span) map[string]float64 {
	var callNs int64
	for _, c := range calls {
		callNs += c.Dur()
	}
	m := map[string]float64{
		"sched.ops":     float64(w.first.ops),
		"sim.runs":      float64(w.first.runs),
		"sim.busy_frac": frac(float64(w.sim.busyNs), float64(workers)*float64(w.dur)),
		"sim.ns_per_op": frac(float64(w.sim.busyNs), float64(w.sim.ops)),
	}
	if callNs > 0 {
		m["engine.overhead_frac"] = 1 - frac(float64(w.sim.busyNs), float64(workers)*float64(callNs))
	}
	return m
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
