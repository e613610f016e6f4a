// Package repro is a from-scratch Go reproduction of
//
//	Hoffeins, Ciorba, Banicescu: "Examining the Reproducibility of Using
//	Dynamic Loop Scheduling Techniques in Scientific Applications"
//	(IPDPS Workshops / PDSEC, 2017),
//
// which verifies a SimGrid-MSG implementation of dynamic loop scheduling
// (DLS) techniques by reproducing scheduling experiments from the TSS
// publication (Tzen & Ni 1993) and the BOLD publication (Hagerup 1997).
//
// The package itself is a thin, stable facade over the full system.
// Its options write one campaign spec, validated as dlsim and dlsimd
// validate theirs; MeanWastedTime and Compare run it through a
// campaign.LocalRunner, and Simulate runs its single point:
//
//   - campaign — the public execution API: declarative Spec (grid ×
//     replications × seed policy as hashable plain data), per-run Event
//     streaming into Sinks, client-side Aggregator, the Executor
//     interface every campaign runs through (campaign.Run) with its
//     in-process implementation LocalRunner, and the Runner interface
//     (Submit, Wait, Stream, Cancel, Describe) of a node's asynchronous
//     job API
//   - client — the typed Go SDK for the dlsimd /v1 HTTP API; a
//     client.Client is both an Executor and a Runner, and the same Spec
//     run locally or remotely yields bit-identical streams and
//     aggregates (API.md documents the wire contract)
//   - campaign/distrib — the fleet coordinator, an Executor that shards
//     one campaign across dlsimd nodes and merges their streams
//     bit-identically to a single-node run
//   - internal/sched — the 15 DLS chunk calculators (STAT, SS, CSS, FSC,
//     GSS, TSS, FAC, FAC2, BOLD, TAP, WF, AWF, AWF-B, AWF-C, AF)
//   - internal/engine — the unified simulation layer: pluggable Backend
//     implementations behind a name registry, the declarative
//     CampaignSpec (a JSON-serializable, canonically hashable grid
//     description every entry point compiles its campaigns to) and the
//     streaming results pipeline, where a parallel worker pool emits
//     per-run events to pluggable Sinks in deterministic order
//   - internal/cache — the content-addressed result store behind
//     repeated campaigns: results are keyed by the spec's canonical
//     hash, and determinism makes equal hashes imply equal results
//   - internal/jobs, internal/service, cmd/dlsimd — the campaign
//     service: a bounded job queue with queued/running/done/failed/
//     cancelled lifecycle states and singleflight deduplication on the
//     spec hash (concurrent identical submissions share one
//     execution), exposed over HTTP with status, cancellation and
//     streaming JSONL/CSV result endpoints
//   - internal/sim — the Hagerup-replica master–worker simulator (the
//     "sim" backend)
//   - internal/des, internal/msg, internal/platform — the SimGrid-MSG
//     equivalent (process-oriented kernel, mailboxes, platform/deployment
//     XML), exposed as the "des" and "msg" backends
//   - internal/workload, internal/rng — task-time generators over a
//     bit-exact rand48 family
//   - internal/metrics, internal/experiment, internal/refdata — wasted
//     time/speedup metrics, the experiment farm and the reference data
//
// Quick start:
//
//	wasted, err := repro.WastedTime("FAC2", 8192, 64,
//	    repro.WithExponential(1), repro.WithOverhead(0.5), repro.WithSeed(42))
//
// Every simulation accepts a backend selection: WithBackend("msg") runs
// the same scenario through the full SimGrid-MSG process model instead
// of the fast chunk-granularity simulator, and Backends() lists the
// registered names. Multi-run entry points (MeanWastedTime, Compare)
// execute their replications concurrently through the engine's streaming
// campaign pipeline; results are bit-identical to a serial loop for a
// given seed, and WithCache(dir) serves repeated campaigns from the
// content-addressed result store without re-simulation.
//
// Every entry point validates its inputs strictly, through the campaign
// spec's own validation: a workload the spec cannot build (a negative
// or NaN task time, say) is an error before any run starts, and so is
// a duplicate technique in Compare, which would silently collapse into
// one map key. Uniform task times with hi == lo are valid: every task
// then takes lo.
//
// Execution is context-aware end to end: the Context variants
// (SimulateContext, MeanWastedTimeContext, CompareContext) — and every
// layer beneath them down to Backend.Run, the campaign worker pool,
// Sinks and the cache — honor cancellation. Cancelling mid-campaign
// stops scheduling new runs, drains the workers without goroutine
// leaks, closes every sink exactly once and returns an error wrapping
// context.Canceled. The plain entry points are equivalent to the
// Context variants under context.Background().
//
// # Performance
//
// The simulation hot path is allocation-free in steady state. The
// "sim" backend's event queue is a loser (tournament) tree with one
// leaf per worker, built in place in the run arena: each scheduling
// operation replays one fixed leaf-to-root path with one branch-free
// comparison per level, and pops exactly the (time, worker id) order a
// heap would. Campaign execution runs through per-worker run arenas:
// every engine.Backend builds an engine.Runner per campaign point,
// which validates the spec once, resets the scheduler in place
// (Reset is part of sched.Scheduler) and reuses the result buffers and
// rand48 state via sim.RunInto. The results pipeline distributes work
// as replication chunks — (point, replication-range) batches auto-sized
// per point to about 8 chunks per worker, tunable via
// engine.ExecConfig.ChunkSize and dlsimd -chunk — and each worker's
// runner survives point switches through Runner.Rebind, so one
// execution context (arena, pooled buffers, rand48 slot) serves a
// worker's whole share of the grid. A worker files each completed chunk
// in a fixed-size ring, and the worker that completes the chunk at the
// delivery frontier delivers every ready chunk through the delivery
// stage shared with cache replay, which hands each chunk to each sink
// as a single partial or as per-run events: sinks are called one call
// at a time, in global order. None of this changes a single
// output bit: fixed SHA-256 digests pin the JSONL output and the
// aggregates of all three backends under every seed policy, whether
// they come from live runs at any worker count and chunk size, a cache
// replay, an aggregate-only hit or client-side aggregation, and CI pins
// sim.Run at 0 steady-state allocs/op up to p = 1024 and gates
// multi-core scaling (>= 1.5x at 4 workers). cmd/benchtraj records
// absolute throughput, allocs/run and the worker-scaling curve
// (BENCH_PR6.json) and takes -cpuprofile/-memprofile for pprof
// analysis; dlsimd -pprof exposes live /debug/pprof/ handlers.
//
// The benchmark harness regenerating every figure of the paper lives in
// bench_test.go and cmd/repro; README.md's "Reproducing the paper" lists
// the commands.
package repro
