package engine

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

// testCampaign is one FAC2 cell whose run r draws rng.RunSeed(seed, r).
func testCampaign(seed uint64, reps int) CampaignSpec {
	return CampaignSpec{
		Techniques:   []string{"FAC2"},
		Ns:           []int64{1024},
		Ps:           []int{8},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         seed,
		SeedPolicy:   SeedFlat,
	}
}

// TestCampaignDeterminism is the parallel-runner reproducibility
// guarantee: the same seed produces byte-identical per-run metrics and
// aggregates for any worker count and any GOMAXPROCS.
func TestCampaignDeterminism(t *testing.T) {
	run := func(workers int) (*CampaignResult, []RunMetrics) {
		t.Helper()
		sink := &countingSink{}
		res, err := testCampaign(42, 50).Execute(context.Background(), ExecConfig{Workers: workers, Sinks: []Sink{sink}})
		if err != nil {
			t.Fatal(err)
		}
		perRun := make([]RunMetrics, len(sink.events))
		for i, ev := range sink.events {
			perRun[i] = ev.Metrics
		}
		return res, perRun
	}
	ref, refRuns := run(1)
	if len(refRuns) != 50 {
		t.Fatalf("serial run delivered %d events, want 50", len(refRuns))
	}
	for _, workers := range []int{2, 7, 32} {
		got, gotRuns := run(workers)
		if !reflect.DeepEqual(gotRuns, refRuns) {
			t.Fatalf("workers=%d: per-run metrics differ from serial", workers)
		}
		if got.Aggregates[0].Wasted != ref.Aggregates[0].Wasted ||
			got.Aggregates[0].Makespan != ref.Aggregates[0].Makespan ||
			got.Aggregates[0].Speedup != ref.Aggregates[0].Speedup ||
			got.Aggregates[0].MeanOps != ref.Aggregates[0].MeanOps {
			t.Fatalf("workers=%d: aggregates differ from serial", workers)
		}
	}
	// And under a different GOMAXPROCS with the default worker count.
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	got, _ := run(0)
	if got.Aggregates[0].Wasted != ref.Aggregates[0].Wasted {
		t.Fatal("GOMAXPROCS=2 aggregate differs from serial")
	}
}

// TestCampaignMatchesSerialBackendLoop pins the aggregation semantics:
// the campaign's mean equals a plain serial loop over Backend.Run with
// the same seed derivation, bit for bit.
func TestCampaignMatchesSerialBackendLoop(t *testing.T) {
	const runs = 30
	base := uint64(7)
	spec := testCampaign(base, runs)
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}

	be, err := New("sim")
	if err != nil {
		t.Fatal(err)
	}
	wasted := make([]float64, runs)
	for r := 0; r < runs; r++ {
		run := points[0]
		run.RNGState = rng.RunSeed(base, r)
		res, err := be.Run(context.Background(), run)
		if err != nil {
			t.Fatal(err)
		}
		wasted[r] = metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, run.H)
	}
	want := metrics.Summarize(wasted)

	got, err := spec.Execute(context.Background(), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Aggregates[0].Wasted != want {
		t.Fatalf("campaign summary %+v != serial summary %+v", got.Aggregates[0].Wasted, want)
	}
}

func TestCampaignMultiPoint(t *testing.T) {
	spec := CampaignSpec{
		Techniques:   []string{"STAT", "SS"},
		Ns:           []int64{512},
		Ps:           []int{4},
		Workload:     workload.Spec{Kind: "constant", P1: 0.01},
		H:            0.5,
		Replications: 3,
	}
	res, err := spec.Execute(context.Background(), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregates) != 2 {
		t.Fatalf("aggregates = %d", len(res.Aggregates))
	}
	if res.Aggregates[0].Spec.Technique != "STAT" || res.Aggregates[1].Spec.Technique != "SS" {
		t.Fatal("aggregates misaligned with points")
	}
	// SS pays h per task; STAT pays h once per PE — SS must waste more.
	if res.Aggregates[1].Wasted.Mean <= res.Aggregates[0].Wasted.Mean {
		t.Errorf("SS wasted %v <= STAT wasted %v",
			res.Aggregates[1].Wasted.Mean, res.Aggregates[0].Wasted.Mean)
	}
	if res.Aggregates[0].PerRun != nil {
		t.Error("Execute without KeepPerRun retained per-run metrics")
	}
}

// badCampaigns are specs Execute must refuse. All but the last fail
// Validate; the last passes it, because Validate probes a technique's
// parameters on the grid's first cell only, and fails at its second
// point when the backend builds the point's scheduler.
func badCampaigns() map[string]CampaignSpec {
	bad := map[string]func(*CampaignSpec){
		"no points":   func(s *CampaignSpec) { s.Techniques = nil },
		"reps=0":      func(s *CampaignSpec) { s.Replications = 0 },
		"bad backend": func(s *CampaignSpec) { s.Backend = "nope" },
		"bad point":   func(s *CampaignSpec) { s.Ns = []int64{0} },
		"backend fail": func(s *CampaignSpec) {
			s.Techniques, s.Ps, s.Weights = []string{"WF"}, []int{2, 3}, []float64{1, 2}
		},
	}
	out := make(map[string]CampaignSpec, len(bad))
	for name, apply := range bad {
		s := testCampaign(1, 2)
		apply(&s)
		out[name] = s
	}
	return out
}

func TestCampaignErrors(t *testing.T) {
	for name, spec := range badCampaigns() {
		if _, err := spec.Execute(context.Background(), ExecConfig{}); err == nil {
			t.Errorf("%s: invalid campaign accepted", name)
		}
	}
	// The failing run's error, from the grid's second point, aborts the
	// campaign and is returned.
	_, err := badCampaigns()["backend fail"].Execute(context.Background(), ExecConfig{})
	if err == nil || !strings.Contains(err.Error(), "point 1") || !strings.Contains(err.Error(), "weights") {
		t.Errorf("backend error not propagated: %v", err)
	}
}
