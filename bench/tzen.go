package main

import (
	"context"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/sched"
)

// tzen-msg is the paper's verification path through the full
// SimGrid-MSG model: both TSS-publication experiments with UseMSG, as
// `repro tss1 -msg` and `repro tss2 -msg` run them. A round is one PE
// count of both experiments — every curve at that count — so the eleven
// rounds of a pass cost about the same and a window yields a median
// over many of them. It is deterministic: the seed is recorded but
// selects nothing.

func tzenSpecs(scale int) []experiment.TzenSpec {
	specs := []experiment.TzenSpec{experiment.TzenExperiment1(), experiment.TzenExperiment2()}
	for i := range specs {
		specs[i].UseMSG = true
		specs[i].N = max(1, specs[i].N/int64(scale))
	}
	return specs
}

type tzenRun struct {
	e     env
	specs []experiment.TzenSpec
	sliced
	last   map[int][]*experiment.TzenResult // per slice: its results
	points []Span                           // traced: one span per single-point RunTzen call
	ops    int64                            // traced: scheduling operations of the rounds run
}

func setupTzen(ctx context.Context, e env) (instance, error) {
	t := &tzenRun{e: e, specs: tzenSpecs(e.scale), last: make(map[int][]*experiment.TzenResult)}
	t.sliced = newSliced("tzen-msg", len(t.specs[0].Ps))
	for _, s := range tzenSpecs(e.scale * warmUpDivisor) {
		if _, err := experiment.RunTzen(ctx, s); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// slice runs both experiments at their k-th PE count. A traced run
// makes one RunTzen call per curve, so each msg run gets its own span.
func (t *tzenRun) slice(ctx context.Context, k int, traced bool) ([]*experiment.TzenResult, error) {
	out := make([]*experiment.TzenResult, len(t.specs))
	for i, s := range t.specs {
		s.Ps = []int{s.Ps[k]}
		if !traced {
			r, err := experiment.RunTzen(ctx, s)
			if err != nil {
				return nil, err
			}
			out[i] = r
			continue
		}
		out[i] = &experiment.TzenResult{Spec: s, Curves: make(map[string][]experiment.TzenPoint)}
		for _, c := range s.Curves {
			one := s
			one.Curves = []experiment.TzenCurve{c}
			start := t.e.tr.now()
			r, err := experiment.RunTzen(ctx, one)
			if err != nil {
				return nil, err
			}
			sp := Span{Name: "msg.run", Key: fmt.Sprintf("%s/%s/%d", s.Name, c.Label, s.Ps[0]), Start: start, End: t.e.tr.now()}
			sp.ID = t.e.tr.Add(sp)
			t.points = append(t.points, sp)
			out[i].Curves[c.Label] = r.Curves[c.Label]
		}
	}
	return out, nil
}

func (t *tzenRun) round(ctx context.Context) (roundOut, error) {
	k := t.sliced.next()
	res, err := t.slice(ctx, k, t.e.tr != nil)
	if err != nil {
		return roundOut{}, err
	}
	t.sliced.record(k, digestTzen(res))
	t.last[k] = res
	if t.e.tr != nil {
		ops, err := tzenOps(t.specs, k)
		if err != nil {
			return roundOut{}, err
		}
		t.ops += ops
	}
	var runs int64
	for _, s := range t.specs {
		runs += int64(len(s.Curves))
	}
	return roundOut{runs: runs, ops: 1}, nil
}

func (t *tzenRun) verify(ctx context.Context) (int, []string, error) {
	// Without a pin the model's determinism is the check: running the
	// slice again must reproduce it exactly.
	failed, problems, err := t.sliced.check(t.e, 0, func(k int) (string, error) {
		res, err := t.slice(ctx, k, false)
		if err != nil {
			return "", fmt.Errorf("tzen-msg reference: %w", err)
		}
		return digestTzen(res), nil
	})
	if err != nil || t.e.scale != 1 || t.sliced.rounds() == 0 {
		return failed, problems, err
	}
	// The paper's verdicts are read at the largest PE count.
	k := len(t.specs[0].Ps) - 1
	res, ok := t.last[k]
	if !ok {
		if res, err = t.slice(ctx, k, false); err != nil {
			return 0, nil, err
		}
	}
	if paper := tzenPaperChecks(res); len(paper) > 0 {
		for _, p := range paper {
			problems = append(problems, "tzen-msg: "+p)
		}
		failed = t.sliced.rounds()
	}
	return failed, problems, nil
}

func (t *tzenRun) close() {}

func (t *tzenRun) layers(w window) (map[string]float64, error) {
	var busy int64
	for _, sp := range t.points {
		busy += sp.Dur()
	}
	ops, err := tzenOps(t.specs, 0)
	if err != nil {
		return nil, err
	}
	var runs int
	for _, s := range t.specs {
		runs += len(s.Curves)
	}
	return map[string]float64{
		"sched.ops":            float64(ops),
		"msg.runs":             float64(runs),
		"msg.busy_frac":        frac(float64(busy), float64(w.dur)),
		"msg.ns_per_op":        frac(float64(busy), float64(t.ops)),
		"engine.overhead_frac": 1 - frac(float64(busy), float64(w.dur)),
	}, nil
}

// tzenOps counts the scheduling operations of slice k. The msg model
// does not report them through RunTzen, and
// the techniques involved are non-adaptive, so replaying each scheduler
// alone yields exactly the chunk sequence the model used.
func tzenOps(specs []experiment.TzenSpec, k int) (int64, error) {
	var ops int64
	for _, s := range specs {
		p := s.Ps[k]
		for _, c := range s.Curves {
			sc, err := sched.New(c.Tech, sched.Params{N: s.N, P: p, H: s.MasterOverhead,
				Mu: s.TaskTime, MinChunk: c.MinChunk})
			if err != nil {
				return 0, err
			}
			for w := 0; sc.Next(w, 0) > 0; w = (w + 1) % p {
			}
			ops += sc.Chunks()
		}
	}
	return ops, nil
}
