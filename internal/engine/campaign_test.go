package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

func testPoint(seed uint64) RunSpec {
	return RunSpec{
		Technique: "FAC2",
		N:         1024,
		P:         8,
		Work:      workload.NewExponential(1),
		H:         0.5,
		RNGState:  seed,
	}
}

// TestCampaignDeterminism is the parallel-runner reproducibility
// guarantee: the same seed produces byte-identical per-run metrics and
// aggregates for any worker count and any GOMAXPROCS.
func TestCampaignDeterminism(t *testing.T) {
	run := func(workers int) (*CampaignResult, []RunMetrics) {
		t.Helper()
		sink := &countingSink{}
		res, err := Campaign{
			Points:       []RunSpec{testPoint(42)},
			Replications: 50,
			Workers:      workers,
		}.RunWith(context.Background(), sink)
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
	point := testPoint(base)

	be, err := New("sim")
	if err != nil {
		t.Fatal(err)
	}
	wasted := make([]float64, runs)
	for r := 0; r < runs; r++ {
		spec := point
		spec.RNGState = rng.RunSeed(base, r)
		res, err := be.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		wasted[r] = metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, spec.H)
	}
	want := metrics.Summarize(wasted)

	got, err := Campaign{
		Points:       []RunSpec{point},
		Replications: runs,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Aggregates[0].Wasted != want {
		t.Fatalf("campaign summary %+v != serial summary %+v", got.Aggregates[0].Wasted, want)
	}
}

func TestCampaignMultiPoint(t *testing.T) {
	points := []RunSpec{
		{Technique: "STAT", N: 512, P: 4, Work: workload.NewConstant(0.01)},
		{Technique: "SS", N: 512, P: 4, Work: workload.NewConstant(0.01), H: 0.5},
	}
	res, err := Campaign{Points: points, Replications: 3}.Run(context.Background())
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
		t.Error("Campaign.Run retained per-run metrics")
	}
}

func TestCampaignErrors(t *testing.T) {
	good := Campaign{Points: []RunSpec{testPoint(1)}, Replications: 2}

	c := good
	c.Points = nil
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("empty campaign accepted")
	}
	c = good
	c.Replications = 0
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("Replications=0 accepted")
	}
	c = good
	c.Backend = "nope"
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("unknown backend accepted")
	}
	c = good
	c.Points = []RunSpec{{Technique: "FAC2", N: 0, P: 2, Work: workload.NewConstant(1)}}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("invalid point accepted")
	}
	// A failing run (unknown technique surfaces from the backend) must
	// abort the campaign with its error.
	c = good
	c.Points = []RunSpec{{Technique: "LIFO", N: 16, P: 2, Work: workload.NewConstant(1)}}
	c.Replications = 100
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("backend error not propagated")
	}
}
