package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// These tests hold the campaign pipeline to serial references for every
// backend and seed policy: the per-worker runners (scheduler Reset, run
// arenas, Rebind across points) must reproduce a plain serial loop of
// Backend.Run, and chunking must be scheduling only. Fixed expected
// output for the same matrix lives in internal/experiment's
// TestEnginePathDigests.

// goldenRun executes the spec's campaign and returns the JSONL stream
// bytes plus the campaign result. chunkSize 0 auto-sizes.
func goldenRun(t *testing.T, spec CampaignSpec, workers, chunkSize int) ([]byte, *CampaignResult) {
	t.Helper()
	var buf bytes.Buffer
	res, err := spec.Execute(context.Background(), ExecConfig{Workers: workers, ChunkSize: chunkSize, Sinks: []Sink{NewJSONLSink(&buf)}})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// serialRun is the naive reference: one Backend.Run per replication (a
// fresh, throwaway runner each time) in (point, replication) order, its
// events fed to a JSONL sink and the spec's Aggregator, both closed at
// the end as the Sink contract requires.
func serialRun(t *testing.T, spec CampaignSpec) ([]byte, *CampaignResult) {
	t.Helper()
	ctx := context.Background()
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	be, err := New(spec.Backend)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := spec.NewAggregator(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sinks := []Sink{agg, NewJSONLSink(&buf)}
	seedFor := spec.seedFunc(points)
	for pi, pt := range points {
		for rep := 0; rep < spec.Replications; rep++ {
			run := pt
			run.RNGState = seedFor(pi, rep)
			res, err := be.Run(ctx, run)
			if err != nil {
				t.Fatal(err)
			}
			ev := Event{Point: pi, Rep: rep, Spec: run, Metrics: pointMetrics(run, res)}
			for _, s := range sinks {
				if err := s.Consume(ctx, ev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), agg.Result()
}

func goldenSpec(backend string) CampaignSpec {
	return CampaignSpec{
		Backend:      backend,
		Techniques:   []string{"GSS", "FAC2", "BOLD"},
		Ns:           []int64{256},
		Ps:           []int{4},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.25,
		Replications: 6,
		Seed:         20170601,
	}
}

// checkGolden compares a campaign's stream and result with a reference.
func checkGolden(t *testing.T, label string, gotStream, refStream []byte, got, ref *CampaignResult) {
	t.Helper()
	if !bytes.Equal(gotStream, refStream) {
		t.Errorf("%s: JSONL stream differs from the reference", label)
	}
	if !reflect.DeepEqual(got.Aggregates, ref.Aggregates) {
		t.Errorf("%s: aggregates differ from the reference", label)
	}
	if got.Overall != ref.Overall {
		t.Errorf("%s: overall roll-up differs from the reference", label)
	}
}

// TestGoldenDeterminismRunnerVsNaive: for all three backends and all
// four seed policies, the pipeline's per-worker runners at several
// worker counts produce the exact JSONL bytes and aggregates of the
// naive serial Backend.Run loop.
func TestGoldenDeterminismRunnerVsNaive(t *testing.T) {
	for _, backend := range []string{"sim", "des", "msg"} {
		for _, policy := range []string{SeedPerCell, SeedFlat, SeedFacade, SeedShared} {
			t.Run(backend+"/"+policy, func(t *testing.T) {
				spec := goldenSpec(backend)
				spec.SeedPolicy = policy
				refStream, refRes := serialRun(t, spec)
				if len(refStream) == 0 {
					t.Fatal("reference stream is empty")
				}
				for _, workers := range []int{1, 4} {
					gotStream, gotRes := goldenRun(t, spec, workers, 0)
					checkGolden(t, fmt.Sprintf("workers=%d", workers), gotStream, refStream, gotRes, refRes)
				}
			})
		}
	}
}

// TestGoldenDeterminismChunkedVsPerRun: for every backend, every seed
// policy and a spread of worker counts and chunk sizes — including
// chunk=7 > Replications=6 (clamped to one chunk per point) — the
// chunked pipeline's JSONL bytes and aggregates equal those of a serial
// run with one replication per chunk. Chunking is scheduling only; a
// differing byte means batching leaked into simulation output.
func TestGoldenDeterminismChunkedVsPerRun(t *testing.T) {
	for _, backend := range []string{"sim", "des", "msg"} {
		for _, policy := range []string{SeedPerCell, SeedFlat, SeedFacade, SeedShared} {
			t.Run(backend+"/"+policy, func(t *testing.T) {
				spec := goldenSpec(backend)
				spec.SeedPolicy = policy
				refStream, refRes := goldenRun(t, spec, 1, 1)
				if len(refStream) == 0 {
					t.Fatal("reference stream is empty")
				}
				for _, workers := range []int{1, 2, 4, 8} {
					for _, chunk := range []int{2, 4, 7} {
						gotStream, gotRes := goldenRun(t, spec, workers, chunk)
						checkGolden(t, fmt.Sprintf("workers=%d chunk=%d", workers, chunk), gotStream, refStream, gotRes, refRes)
					}
				}
			})
		}
	}
}

// TestGoldenDeterminismAcrossBackendsStable pins the cross-backend
// equivalence on the runner path: sim and des execute identical dynamics
// and must deliver identical streams for the same spec (msg differs by
// construction: message timing enters the makespan).
func TestGoldenDeterminismAcrossBackendsStable(t *testing.T) {
	simStream, _ := goldenRun(t, goldenSpec("sim"), 3, 0)
	desStream, _ := goldenRun(t, goldenSpec("des"), 3, 0)
	// The streams embed no backend name, so equal dynamics mean equal
	// bytes.
	if !bytes.Equal(simStream, desStream) {
		t.Error("sim and des runner-path streams diverge on free-network dynamics")
	}
}
