package engine

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// Allocation-tracking benchmarks for the campaign pipeline. The
// trajectory tool (cmd/benchtraj) records absolute runs/sec; these guard
// the per-run allocation profile in relative terms:
//
//	go test -bench 'Alloc' -benchmem ./internal/engine/
//
// benchSpec is the same shape the trajectory document measures — two
// points, exponential workload — scaled for go test iteration counts.
func benchSpec(reps int) CampaignSpec {
	return CampaignSpec{
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{4096},
		Ps:           []int{8},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         20170601,
	}
}

func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	c, err := benchSpec(50).Compile(workers)
	if err != nil {
		b.Fatal(err)
	}
	runs := len(c.Points) * c.Replications
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs), "runs/op")
}

// BenchmarkCampaignStreamAlloc measures the full streaming pipeline —
// runner arenas, batched delivery, ring reorder, aggregation — at one
// worker and at GOMAXPROCS. allocs/op divided by runs/op is the per-run
// allocation cost.
func BenchmarkCampaignStreamAlloc(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchCampaign(b, 1) })
	b.Run("workers=N", func(b *testing.B) { benchCampaign(b, 0) })
}

// BenchmarkAggregateSinkAlloc isolates the reduction stage: consuming
// one ordered event stream into per-point aggregates.
func BenchmarkAggregateSinkAlloc(b *testing.B) {
	spec := benchSpec(100)
	points, err := spec.Points()
	if err != nil {
		b.Fatal(err)
	}
	ev := Event{Metrics: RunMetrics{Wasted: 1.5, Makespan: 600, Speedup: 6, SchedOps: 40}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newAggregateSink(points, spec.Replications, false)
		for pi := range points {
			ev.Point, ev.Spec = pi, points[pi]
			for rep := 0; rep < spec.Replications; rep++ {
				ev.Rep = rep
				if err := s.Consume(ctx, ev); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		s.Aggregates()
	}
}

// TestCampaignAllocationBudget is the campaign-level allocation gate: a
// 500-run campaign must stay under a pinned per-run ceiling. Run
// sequentially so the counts are stable.
func TestCampaignAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	c, err := benchSpec(250).Compile(1) // 2 points × 250 reps = 500 runs
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per 500-run campaign: %.0f", allocs)
	// Pinned ceiling: ~0 steady-state allocs per run plus fixed campaign
	// setup. 500 runs at <= 2 allocs/run of slack keeps regressions
	// (per-run boxing, escaping closures) loudly visible.
	if perRun := allocs / 500; perRun > 2 {
		t.Errorf("campaign allocates %.2f per run, ceiling is 2", perRun)
	}
}

// TestAggregateFastPathAllocationBudget is the aggregate-only allocation
// gate: a campaign whose only sink is the aggregator (a PartialSink, so
// no per-run Event is ever built) must stay at or below 0.05
// allocations per run — effectively zero steady-state allocation, with
// the fixed campaign setup amortized over a 5000-run grid.
func TestAggregateFastPathAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	c, err := benchSpec(2500).Compile(1) // 2 points × 2500 reps = 5000 runs
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	perRun := allocs / 5000
	t.Logf("allocs per 5000-run campaign: %.0f (%.4f/run)", allocs, perRun)
	if perRun > 0.05 {
		t.Errorf("aggregate-only campaign allocates %.4f per run, budget is 0.05", perRun)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// discardSink is an ordered sink that drops every event.
type discardSink struct{}

func (discardSink) Consume(context.Context, Event) error { return nil }
func (discardSink) Close() error                         { return nil }

// TestOrderedSinkAllocationBudget: attaching an ordered sink costs no
// heap memory per run. Events are built at delivery time, one at a time
// on the stack, so an Execute with one discarding ordered sink must
// allocate within 8 bytes per run of the same campaign without it.
func TestOrderedSinkAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	if raceEnabled {
		t.Skip("heap byte counts vary under the race detector")
	}
	spec := benchSpec(2500) // 2 points × 2500 reps = 5000 runs
	const runs = 5000
	bytesPerRun := func(sinks ...Sink) float64 {
		best := math.Inf(1)
		for i := 0; i < 2; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := spec.Execute(context.Background(), ExecConfig{Workers: 1, Sinks: sinks}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = math.Min(best, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return best
	}
	bare := bytesPerRun()
	ordered := bytesPerRun(discardSink{})
	t.Logf("bytes per run: %.1f without sinks, %.1f with one ordered sink", bare, ordered)
	if ordered > bare+8 {
		t.Errorf("an ordered sink costs %.1f B/run over the bare campaign's %.1f; budget is 8", ordered-bare, bare)
	}
}
