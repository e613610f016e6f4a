package engine

import (
	"context"
	"io"
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
	spec := benchSpec(50)
	runs := spec.GridPoints() * spec.Replications
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Execute(context.Background(), ExecConfig{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs), "runs/op")
}

// BenchmarkCampaignStreamAlloc measures the full streaming pipeline —
// runner arenas, batched delivery at the frontier, aggregation — at one
// worker and at GOMAXPROCS. allocs/op divided by runs/op is the per-run
// allocation cost.
func BenchmarkCampaignStreamAlloc(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchCampaign(b, 1) })
	b.Run("workers=N", func(b *testing.B) { benchCampaign(b, 0) })
}

// perrunGrid is the grid of the benchmark's perrun-export workload —
// {STAT, CSS, FAC2, GSS, TSS} × n = 256 × p ∈ {4, 16}, ten cheap
// points — at reps replications.
func perrunGrid(reps int) CampaignSpec {
	return CampaignSpec{
		Techniques:   []string{"STAT", "CSS", "FAC2", "GSS", "TSS"},
		Ns:           []int64{256},
		Ps:           []int{4, 16},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         1,
	}
}

// BenchmarkStreamChunkOverhead prices a chunk: perrun-export's grid at
// 100 replications, aggregate-only on 2 workers, once with one run per
// chunk and once with the automatic size. Its runs are cheap, so the
// ns/op difference over the chunks/op difference is the pipeline's cost
// per chunk: claiming it, handing it to delivery and delivering it.
func BenchmarkStreamChunkOverhead(b *testing.B) {
	const reps, workers = 100, 2
	spec := perrunGrid(reps)
	for _, chunk := range []int{1, 0} {
		size, name := chunk, "chunk=1"
		if chunk == 0 {
			size, name = autoChunkSize(reps, workers), "chunk=auto"
		}
		chunks := spec.GridPoints() * ((reps + size - 1) / size)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Execute(context.Background(), ExecConfig{Workers: workers, ChunkSize: chunk}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(chunks), "chunks/op")
		})
	}
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
		s := newAggregator(points, spec.Replications, false)
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
		s.aggregates()
	}
}

// TestCampaignAllocationBudget is the campaign-level allocation gate: a
// 500-run campaign must stay under a pinned per-run ceiling. Run
// sequentially so the counts are stable.
func TestCampaignAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	spec := benchSpec(250) // 2 points × 250 reps = 500 runs
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := spec.Execute(context.Background(), ExecConfig{Workers: 1}); err != nil {
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
	spec := benchSpec(2500) // 2 points × 2500 reps = 5000 runs
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := spec.Execute(context.Background(), ExecConfig{Workers: 1}); err != nil {
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
// on the stack, so an Execute with one ordered sink — one that drops
// every event, or a JSONL export encoding every row into a reused
// buffer — must allocate within 8 bytes per run of the same campaign
// without it.
func TestOrderedSinkAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	if raceEnabled {
		t.Skip("heap byte counts vary under the race detector")
	}
	spec := benchSpec(2500) // 2 points × 2500 reps = 5000 runs
	const runs = 5000
	bytesPerRun := func(newSinks func() []Sink) float64 {
		best := math.Inf(1)
		for i := 0; i < 2; i++ {
			sinks := newSinks()
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
	bare := bytesPerRun(func() []Sink { return nil })
	for _, c := range []struct {
		name string
		sink func() Sink
	}{
		{"discarding sink", func() Sink { return discardSink{} }},
		{"JSONL sink", func() Sink { return NewJSONLSink(io.Discard) }},
	} {
		ordered := bytesPerRun(func() []Sink { return []Sink{c.sink()} })
		t.Logf("bytes per run: %.1f without sinks, %.1f with one %s", bare, ordered, c.name)
		if ordered > bare+8 {
			t.Errorf("a %s costs %.1f B/run over the bare campaign's %.1f; budget is 8", c.name, ordered-bare, bare)
		}
	}
}
