package engine

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
)

// These tests pin the per-sink delivery rule: a PartialSink receives one
// MetricsPartial per chunk and never a per-run Event, any other sink of
// the same campaign receives every Event in order, and aggregation is
// bit-identical whichever of the two it is fed — Aggregates equal under
// reflect.DeepEqual and Overall under ==.

// pathSpy counts which delivery interface the pipeline used.
type pathSpy struct {
	events   atomic.Int64
	partials atomic.Int64
	runs     atomic.Int64
}

func (s *pathSpy) Consume(_ context.Context, _ Event) error {
	s.events.Add(1)
	return nil
}

func (s *pathSpy) ConsumePartial(_ context.Context, p MetricsPartial) error {
	s.partials.Add(1)
	s.runs.Add(int64(p.Len()))
	return nil
}

func (s *pathSpy) Close() error { return nil }

// orderedOnly hides ConsumePartial: the wrapped sink is handed per-run
// events although it could take partials.
type orderedOnly struct{ Sink }

// TestGoldenFastPathVsOrdered: for all three backends, all four seed
// policies, several worker counts and chunk sizes — including chunk=1
// (one run per partial) and chunk=7 > Replications=6 (clamped to one
// chunk per point) — one campaign feeds an Aggregator by partials and
// a second one by ordered events; both produce the campaign's own
// aggregates and overall roll-up bit for bit.
func TestGoldenFastPathVsOrdered(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []string{"sim", "des", "msg"} {
		for _, policy := range []string{SeedPerCell, SeedFlat, SeedFacade, SeedShared} {
			t.Run(backend+"/"+policy, func(t *testing.T) {
				spec := goldenSpec(backend)
				spec.SeedPolicy = policy
				points, err := spec.Points()
				if err != nil {
					t.Fatal(err)
				}
				wantRuns := int64(len(points) * spec.Replications)
				for _, workers := range []int{1, 4, 8} {
					for _, chunk := range []int{0, 1, 7} {
						byPartial, err := spec.NewAggregator(false)
						if err != nil {
							t.Fatal(err)
						}
						byEvent, err := spec.NewAggregator(false)
						if err != nil {
							t.Fatal(err)
						}
						spy := &pathSpy{}
						res, err := spec.Execute(ctx, ExecConfig{Workers: workers, ChunkSize: chunk,
							Sinks: []Sink{spy, byPartial, orderedOnly{byEvent}}})
						if err != nil {
							t.Fatal(err)
						}
						if spy.events.Load() != 0 || spy.partials.Load() == 0 || spy.runs.Load() != wantRuns {
							t.Fatalf("workers=%d chunk=%d: partial sink saw %d events and %d partials carrying %d runs, want 0 events and %d runs",
								workers, chunk, spy.events.Load(), spy.partials.Load(), spy.runs.Load(), wantRuns)
						}
						for name, agg := range map[string]*Aggregator{"partials": byPartial, "events": byEvent} {
							got := agg.Result()
							if !reflect.DeepEqual(got.Aggregates, res.Aggregates) || got.Overall != res.Overall {
								t.Errorf("workers=%d chunk=%d: aggregation fed by %s differs from the campaign's", workers, chunk, name)
							}
						}
					}
				}
			})
		}
	}
}

// partialRecorder keeps a copy of every partial and counts Consume
// calls.
type partialRecorder struct {
	partials []MetricsPartial
	events   int
}

func (s *partialRecorder) Consume(context.Context, Event) error {
	s.events++
	return nil
}

func (s *partialRecorder) ConsumePartial(_ context.Context, p MetricsPartial) error {
	p.Runs = append([]RunMetrics(nil), p.Runs...) // Runs is only valid during the call
	s.partials = append(s.partials, p)
	return nil
}

func (s *partialRecorder) Close() error { return nil }

// TestMixedSinksDeliveredPerSink: with a PartialSink and an ordered sink
// attached to the same campaign, the PartialSink's partials cover every
// run exactly once in (point, RepLo) order and it gets no Consume call,
// the ordered sink gets every event in order with the same metrics, and
// the aggregates equal those of an aggregate-only run.
func TestMixedSinksDeliveredPerSink(t *testing.T) {
	ctx := context.Background()
	spec := goldenSpec("sim")
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	reps := spec.Replications
	for _, chunk := range []int{0, 1, 4} {
		rec := &partialRecorder{}
		ordered := &countingSink{}
		res, err := spec.Execute(ctx, ExecConfig{Workers: 4, ChunkSize: chunk, Sinks: []Sink{rec, ordered}})
		if err != nil {
			t.Fatal(err)
		}
		if rec.events != 0 {
			t.Fatalf("chunk=%d: PartialSink received %d Consume calls", chunk, rec.events)
		}
		var fromPartials []RunMetrics
		pi, rep := 0, 0
		for _, p := range rec.partials {
			if p.Point != pi || p.RepLo != rep || p.Len() == 0 || rep+p.Len() > reps {
				t.Fatalf("chunk=%d: partial (point %d, RepLo %d, %d runs) breaks the order at (point %d, rep %d)",
					chunk, p.Point, p.RepLo, p.Len(), pi, rep)
			}
			fromPartials = append(fromPartials, p.Runs...)
			if rep += p.Len(); rep == reps {
				pi, rep = pi+1, 0
			}
		}
		if pi != len(points) || rep != 0 {
			t.Fatalf("chunk=%d: partials stop at (point %d, rep %d) of %d points", chunk, pi, rep, len(points))
		}
		if len(ordered.events) != len(fromPartials) {
			t.Fatalf("chunk=%d: ordered sink saw %d events, partials carried %d runs", chunk, len(ordered.events), len(fromPartials))
		}
		for i, ev := range ordered.events {
			if ev.Point != i/reps || ev.Rep != i%reps {
				t.Fatalf("chunk=%d: event %d out of order: point=%d rep=%d", chunk, i, ev.Point, ev.Rep)
			}
			if ev.Metrics != fromPartials[i] {
				t.Fatalf("chunk=%d: event %d metrics differ from its partial's", chunk, i)
			}
		}
		alone, err := spec.Execute(ctx, ExecConfig{Workers: 4, ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Aggregates, alone.Aggregates) || res.Overall != alone.Overall {
			t.Errorf("chunk=%d: mixed-sink aggregates differ from an aggregate-only run", chunk)
		}
	}
}
