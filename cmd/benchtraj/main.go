// Command benchtraj emits the repo's machine-readable performance
// trajectory: it measures campaign throughput (runs per second) and the
// per-run allocation profile through the engine's streaming pipeline
// under the configurations future PRs need to compare against — a
// multi-worker scaling sweep (these rows are aggregate-only: no per-run
// sink, so no per-run Event is built), the same campaign with one
// ordered per-event sink attached for comparison, and two cache hits,
// each a replay of the stored per-run records decoded from the binary
// cache format: one with a sink consuming every record, one
// aggregate-only (row campaign/cached-snapshot, named for the snapshot
// section that earlier cache formats served it from). The
// samples are written as one JSON document (BENCH_PR8.json at the repo
// root for this PR, next to the earlier BENCH_PR3/5/6/7.json).
//
// With -servers the document additionally records distributed-fleet
// throughput: the same spec is sharded across the listed dlsimd nodes
// (campaign/distrib), timed cold and then re-submitted warm, so the
// derived resubmit_speedup captures how much a fleet with a shared
// result store (dlsimd -cache on a common directory) gains from
// shard-level content addressing.
//
// It complements `go test -bench` (which guards against regressions in
// relative terms on a developer's machine) by recording absolute
// throughput numbers in a stable schema that CI artifacts and later
// PRs can diff:
//
//	go run ./cmd/benchtraj -out BENCH_PR8.json
//	go run ./cmd/benchtraj -reps 50 -out /dev/stdout      # quick look
//	go run ./cmd/benchtraj -workers 1,2,4 -min-speedup 1.5 # CI scaling gate
//	go run ./cmd/benchtraj -min-cache-speedup 20           # CI replay gate
//	go run ./cmd/benchtraj -servers http://a:8080,http://b:8080 -shards 4
//
// Every measurement executes the identical declarative campaign spec,
// so the work per run is constant across configurations and PRs
// (changing the spec bumps the schema's spec_hash, making stale
// comparisons detectable). BENCH_PR8.json's spec hash matches
// BENCH_PR3/5/6/7.json's, so the documents are directly comparable.
//
// Each measurement records the host CPU count it ran on. On a
// single-CPU host the worker goroutines timeshare one core, so the
// derived parallel_speedup would measure scheduler noise, not scaling —
// the report then omits it and says so in derived.speedup_note, and the
// -min-speedup gate is skipped with a message.
//
// For drilling into where time and memory go, -cpuprofile and
// -memprofile write pprof profiles covering the live (non-cached)
// measurements:
//
//	go run ./cmd/benchtraj -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/campaign"
	"repro/campaign/distrib"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/workload"
)

// measurement is one throughput sample.
type measurement struct {
	Name        string  `json:"name"`       // e.g. "campaign/workers=4"
	Workers     int     `json:"workers"`    // worker goroutines (0 = GOMAXPROCS)
	CPUs        int     `json:"cpus"`       // runtime.NumCPU() where this sample ran
	ChunkSize   int     `json:"chunk_size"` // replications per work item; 0 = auto
	Cached      bool    `json:"cached"`     // served from the result store
	Runs        int64   `json:"runs"`       // simulated runs per iteration
	Seconds     float64 `json:"seconds"`    // best iteration wall time
	RunsPerSec  float64 `json:"runs_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_run"` // heap allocations per simulated run (min across iterations)
}

// report is the trajectory document. Schema changes must bump Schema.
type report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	SpecHash  string `json:"spec_hash"` // campaign measured, content-addressed
	Points    int    `json:"points"`
	Reps      int    `json:"replications"`
	Generated string `json:"generated_at"`
	Iters     int    `json:"iterations_per_measurement"`
	// Nodes and Shards describe the -servers fleet, when one was
	// measured: how many dlsimd nodes the campaign was sharded across
	// and into how many shards.
	Nodes   int     `json:"nodes,omitempty"`
	Shards  int     `json:"shards,omitempty"`
	Derived derived `json:"derived"`

	Measurements []measurement `json:"measurements"`
}

// scalingPoint is one step of the derived worker-scaling curve.
type scalingPoint struct {
	Workers int     `json:"workers"`
	Speedup float64 `json:"speedup"` // vs the workers=1 measurement
}

type derived struct {
	// ParallelSpeedup is the best multi-worker throughput of the sweep
	// over the workers=1 throughput. Omitted when the host has a single
	// CPU: the workers then timeshare one core and the ratio measures
	// scheduler noise, not parallel scaling (see SpeedupNote).
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// SpeedupNote explains an omitted ParallelSpeedup.
	SpeedupNote string `json:"speedup_note,omitempty"`
	// Scaling is the full speedup-vs-workers curve of the sweep.
	Scaling []scalingPoint `json:"scaling,omitempty"`
	// CacheSpeedup is the aggregate-only hit, a replay of the stored
	// records with no sink attached, vs the fastest live measurement
	// (the field keeps its name for cross-PR comparability).
	CacheSpeedup float64 `json:"cache_speedup"`
	// ReplaySpeedup is the per-run cached replay (every stored record
	// decoded and delivered to a sink) vs the fastest live measurement.
	ReplaySpeedup float64 `json:"replay_speedup"`
	// FastPathSpeedup is the aggregate-only campaign (chunk partials, no
	// per-run events) vs the same campaign with one ordered per-event
	// sink attached, at one worker. The aggregator takes partials in
	// both, so the ratio prices building and delivering one Event per
	// run.
	FastPathSpeedup float64 `json:"fast_path_speedup"`
	// DistributedRunsPerSec is the cold sharded-fleet throughput of the
	// -servers measurement (0 when no fleet was measured).
	DistributedRunsPerSec float64 `json:"distributed_runs_per_sec,omitempty"`
	// ResubmitSpeedup is the warm re-submission of the same sharded
	// campaign vs the cold run. With a result store shared across the
	// fleet every shard replays from the cache, so this measures
	// shard-level content addressing end to end.
	ResubmitSpeedup float64 `json:"resubmit_speedup,omitempty"`
}

// discardSink consumes ordered per-run events and drops them. It has no
// ConsumePartial on purpose: the engine delivers it one Event per run,
// which is exactly what the ordered and replay rows must pay for; the
// aggregator next to it still takes partials.
type discardSink struct{}

func (discardSink) Consume(context.Context, engine.Event) error { return nil }
func (discardSink) Close() error                                { return nil }

// countingExec runs one campaign execution and returns its wall time and
// the heap allocations performed during it. ReadMemStats is global, so
// the count includes pipeline bookkeeping — exactly what the trajectory
// should charge per run.
func countingExec(ctx context.Context, spec engine.CampaignSpec, cfg engine.ExecConfig) (secs float64, allocs uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := spec.Execute(ctx, cfg); err != nil {
		return 0, 0, err
	}
	secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return secs, after.Mallocs - before.Mallocs, nil
}

// parseWorkers decodes the -workers sweep list ("1,2,4,8").
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-workers: %q is not a positive integer", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers: empty sweep")
	}
	if out[0] != 1 {
		return nil, fmt.Errorf("-workers: the sweep must start at 1 (the scaling baseline), got %v", out)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtraj: ")
	err := run()
	cliutil.Exit(err)
}

func run() error {
	var (
		out          = flag.String("out", "BENCH_PR8.json", "output file for the trajectory document")
		reps         = flag.Int("reps", 250, "replications per campaign point")
		iters        = flag.Int("iters", 3, "iterations per measurement (best is reported)")
		workersCSV   = flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep (must start at 1)")
		chunk        = flag.Int("chunk", 0, "replications per work item (0 = auto-size; never changes results)")
		minSpeedup   = flag.Float64("min-speedup", 0, "fail unless the 4-worker speedup reaches this (0 = no gate; skipped on hosts with fewer than 4 CPUs)")
		minCacheSpup = flag.Float64("min-cache-speedup", 0, "fail unless the per-run cached replay beats the fastest live run by this factor (0 = no gate)")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the live measurements to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile (after the live measurements) to this file")
		serversCSV   = flag.String("servers", "", "comma-separated dlsimd base URLs; also measure the campaign sharded across this fleet (cold, then warm re-submission)")
		shards       = flag.Int("shards", 0, "with -servers: shard count for the fleet measurement (0 = one per node)")
	)
	flag.Parse()
	if *reps <= 0 || *iters <= 0 {
		return cliutil.Usagef("-reps and -iters must be positive")
	}
	sweep, err := parseWorkers(*workersCSV)
	if err != nil {
		return cliutil.Usagef("%v", err)
	}

	spec := engine.CampaignSpec{
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{4096},
		Ps:           []int{8},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: *reps,
		Seed:         20170601,
	}
	points, err := spec.Points()
	if err != nil {
		return err
	}
	hash, err := spec.Hash()
	if err != nil {
		return err
	}
	totalRuns := int64(len(points)) * int64(*reps)
	cpus := runtime.NumCPU()
	ctx := context.Background()

	measure := func(name string, workers int, store cache.Store, cached, ordered bool) (measurement, error) {
		best := measurement{
			Name: name, Workers: workers, CPUs: cpus, ChunkSize: *chunk,
			Cached: cached, Runs: totalRuns,
		}
		var minAllocs uint64
		for i := 0; i < *iters; i++ {
			var sinks []engine.Sink
			if ordered {
				sinks = []engine.Sink{discardSink{}}
			}
			secs, allocs, err := countingExec(ctx, spec, engine.ExecConfig{
				Workers: workers, ChunkSize: *chunk, Cache: store, Sinks: sinks,
			})
			if err != nil {
				return measurement{}, fmt.Errorf("%s: %w", name, err)
			}
			if best.Seconds == 0 || secs < best.Seconds {
				best.Seconds = secs
			}
			if i == 0 || allocs < minAllocs {
				minAllocs = allocs
			}
		}
		best.RunsPerSec = float64(totalRuns) / best.Seconds
		best.AllocsPerOp = float64(minAllocs) / float64(totalRuns)
		log.Printf("%-22s %8.0f runs/s  %6.2f allocs/run  (%d runs in %.3fs)",
			name, best.RunsPerSec, best.AllocsPerOp, totalRuns, best.Seconds)
		return best, nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	var live []measurement
	byWorkers := make(map[int]measurement, len(sweep))
	for _, w := range sweep {
		m, err := measure(fmt.Sprintf("campaign/workers=%d", w), w, nil, false, false)
		if err != nil {
			return err
		}
		live = append(live, m)
		byWorkers[w] = m
	}
	// The ordered per-event delivery at one worker: same campaign with
	// one order-sensitive sink attached, which gets one Event per run.
	orderedRow, err := measure("campaign/ordered/workers=1", 1, nil, false, true)
	if err != nil {
		return err
	}
	live = append(live, orderedRow)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // settle live objects before the heap snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// Cache hits: populate the store once live, then replay it twice —
	// with a sink consuming every stored record, and aggregate-only.
	store := cache.NewMemory()
	if _, err := spec.Execute(ctx, engine.ExecConfig{Cache: store, ChunkSize: *chunk}); err != nil {
		return err
	}
	replay, err := measure("campaign/cached-replay", 0, store, true, true)
	if err != nil {
		return err
	}
	aggOnly, err := measure("campaign/cached-snapshot", 0, store, true, false)
	if err != nil {
		return err
	}

	// Distributed fleet: shard the identical spec across the -servers
	// nodes (campaign/distrib), time the cold run, then warm
	// re-submissions. When the fleet shares a result store the warm pass
	// replays every shard from the cache without re-simulation.
	var fleetRows []measurement
	var fleetCold, fleetWarm measurement
	nodes, shardsUsed := 0, 0
	if *serversCSV != "" {
		for _, u := range strings.Split(*serversCSV, ",") {
			if strings.TrimSpace(u) != "" {
				nodes++
			}
		}
		shardsUsed = *shards
		if shardsUsed == 0 {
			shardsUsed = nodes
		}
		fleet, closeFleet, err := cliutil.NewFleetRunner(*serversCSV, distrib.Options{Shards: *shards}, "")
		if err != nil {
			return err
		}
		defer closeFleet()
		timeFleet := func(name string, iters int, cached bool) (measurement, error) {
			m := measurement{Name: name, CPUs: cpus, Cached: cached, Runs: totalRuns}
			for i := 0; i < iters; i++ {
				start := time.Now()
				if _, err := campaign.Run(ctx, fleet, spec); err != nil {
					return measurement{}, fmt.Errorf("%s: %w", name, err)
				}
				secs := time.Since(start).Seconds()
				if m.Seconds == 0 || secs < m.Seconds {
					m.Seconds = secs
				}
			}
			m.RunsPerSec = float64(totalRuns) / m.Seconds
			log.Printf("%-22s %8.0f runs/s  (%d runs in %.3fs, %d nodes, %d shards)",
				name, m.RunsPerSec, totalRuns, m.Seconds, nodes, shardsUsed)
			return m, nil
		}
		// The cold pass is a single run on purpose: a best-of loop would
		// hit the fleet's shared cache from the second iteration on and
		// report warm numbers as cold.
		fleetCold, err = timeFleet("campaign/distributed/cold", 1, false)
		if err != nil {
			return err
		}
		fleetWarm, err = timeFleet("campaign/distributed/warm", *iters, true)
		if err != nil {
			return err
		}
		fleetRows = append(fleetRows, fleetCold, fleetWarm)
	}

	// Derive the scaling curve against the workers=1 baseline.
	base := byWorkers[1]
	bestLive := base
	var d derived
	for _, w := range sweep[1:] {
		m := byWorkers[w]
		d.Scaling = append(d.Scaling, scalingPoint{Workers: w, Speedup: m.RunsPerSec / base.RunsPerSec})
		if m.RunsPerSec > bestLive.RunsPerSec {
			bestLive = m
		}
	}
	if cpus == 1 {
		// A one-CPU sweep timeshares every worker on one core: the ratio
		// would compare scheduler overhead, not parallel scaling.
		d.SpeedupNote = "host has 1 CPU; multi-worker throughput ratios measure goroutine scheduling overhead, not parallel scaling, so parallel_speedup is omitted"
		log.Print("note: single-CPU host; omitting derived parallel_speedup")
	} else if len(sweep) > 1 {
		d.ParallelSpeedup = bestLive.RunsPerSec / base.RunsPerSec
	}
	d.CacheSpeedup = aggOnly.RunsPerSec / bestLive.RunsPerSec
	d.ReplaySpeedup = replay.RunsPerSec / bestLive.RunsPerSec
	d.FastPathSpeedup = base.RunsPerSec / orderedRow.RunsPerSec
	if len(fleetRows) > 0 {
		d.DistributedRunsPerSec = fleetCold.RunsPerSec
		d.ResubmitSpeedup = fleetWarm.RunsPerSec / fleetCold.RunsPerSec
	}

	rep := report{
		Schema:       "dlsim-bench-trajectory/v4", // v4: distributed fleet rows + nodes/shards + resubmit_speedup
		GoVersion:    runtime.Version(),
		CPUs:         cpus,
		SpecHash:     hash,
		Points:       len(points),
		Reps:         *reps,
		Generated:    time.Now().UTC().Format(time.RFC3339),
		Iters:        *iters,
		Nodes:        nodes,
		Shards:       shardsUsed,
		Derived:      d,
		Measurements: append(append(live, replay, aggOnly), fleetRows...),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if d.ParallelSpeedup > 0 {
		log.Printf("parallel speedup %.2fx (best of sweep), replay %.2fx, aggregate-only %.2fx, fast path %.2fx; wrote %s",
			d.ParallelSpeedup, d.ReplaySpeedup, d.CacheSpeedup, d.FastPathSpeedup, *out)
	} else {
		log.Printf("replay speedup %.2fx, aggregate-only %.2fx, fast path %.2fx; wrote %s",
			d.ReplaySpeedup, d.CacheSpeedup, d.FastPathSpeedup, *out)
	}
	if d.ResubmitSpeedup > 0 {
		log.Printf("distributed: %d nodes, %d shards, %.0f runs/s cold, resubmit speedup %.2fx",
			nodes, shardsUsed, d.DistributedRunsPerSec, d.ResubmitSpeedup)
	}

	// The CI scaling gate: 4 workers on a ≥4-CPU host must beat the
	// sequential baseline by the given factor.
	if *minSpeedup > 0 {
		if cpus < 4 {
			log.Printf("min-speedup gate skipped: host has %d CPUs, need at least 4 for a meaningful 4-worker measurement", cpus)
			return nil
		}
		m, ok := byWorkers[4]
		if !ok {
			return fmt.Errorf("-min-speedup needs a 4-worker measurement; add 4 to -workers (got %s)", *workersCSV)
		}
		got := m.RunsPerSec / base.RunsPerSec
		if got < *minSpeedup {
			return fmt.Errorf("scaling gate failed: 4-worker speedup %.2fx < required %.2fx", got, *minSpeedup)
		}
		log.Printf("scaling gate passed: 4-worker speedup %.2fx >= %.2fx", got, *minSpeedup)
	}

	// The CI replay gate: a per-run cache hit must beat the fastest live
	// run by the given factor. Unlike the scaling gate, this needs no CPU
	// minimum — the replay is a single-threaded feed loop and the ratio
	// only grows on hosts where the live sweep parallelizes worse.
	if *minCacheSpup > 0 {
		if d.ReplaySpeedup < *minCacheSpup {
			return fmt.Errorf("cache replay gate failed: replay speedup %.2fx < required %.2fx", d.ReplaySpeedup, *minCacheSpup)
		}
		log.Printf("cache replay gate passed: replay speedup %.2fx >= %.2fx", d.ReplaySpeedup, *minCacheSpup)
	}
	return nil
}
