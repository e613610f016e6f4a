// Package campaign is the public vocabulary of the simulator's
// execution layer: declarative campaign specifications, per-run event
// streaming, result aggregation, and the Executor and Runner interfaces
// that make local, remote and distributed execution interchangeable.
//
// A campaign is the unit of every experiment in the reproduced paper: a
// (technique × n × p) grid of independent simulated loop executions,
// replicated many times (the paper uses 1000) under a deterministic
// seed policy. A Spec describes a campaign as plain data — it
// serializes to JSON, round-trips losslessly, and has a canonical hash
// under which results are content-addressed. Execution is
// bit-deterministic in the spec: two executions of the same spec, on
// any worker count, on any Executor, produce identical per-run metrics,
// identical result streams and identical aggregates.
//
// # Executors and Runners
//
// An Executor runs a campaign from submission to aggregated result,
// and Run drives any Executor. Three implementations exist:
//
//   - LocalRunner (this package) calls straight into the engine's
//     worker pool, content-addressed result store and context-aware
//     cancellation plumbing. It is the only way a campaign runs in
//     process, and it holds nothing between calls.
//   - client.Client (package repro/client) speaks the dlsimd daemon's
//     /v1 HTTP API: it submits the spec and folds the streamed events
//     through an Aggregator. Aggregation is a deterministic fold over
//     the event stream, so a remote execution aggregated client-side is
//     bit-identical to a local one.
//   - distrib.Coordinator (package repro/campaign/distrib) shards one
//     campaign across a fleet of nodes — replication windows become
//     ordinary sub-specs via Spec.RepOffset — and merges the shard
//     streams bit-identically to a single-node run, retrying failed or
//     straggling shards on surviving nodes.
//
// A Runner is a node's asynchronous job API: Submit enqueues a spec
// and returns a job handle, Wait blocks for the terminal state, Stream
// delivers the deterministic per-run Event sequence to Sinks, Cancel
// aborts, and Describe reports the node's capabilities (techniques,
// backends, seed policies). client.Client implements it over a dlsimd
// daemon's job queue, and the coordinator places its shards on nodes
// through it.
//
// # Sinks: one delivery rule per sink
//
// Sinks observe campaign output. Every chunk of replications a worker
// completes is delivered once, in deterministic (point, replication)
// order, and each sink takes it in its own form. A plain Sink receives
// one Event per run — what the CSV and JSONL exporters need. A
// PartialSink receives one MetricsPartial per chunk instead, carrying
// the chunk's per-run scalars, and no Events. The choice is made per
// sink, so attaching an exporter never changes how the Aggregator (a
// PartialSink) is fed, and both forms yield bit-identical aggregates.
// Cache replays use the same delivery.
//
//	spec := campaign.Spec{
//	    Techniques:   []string{"FAC2", "GSS"},
//	    Ns:           []int64{8192},
//	    Ps:           []int{64},
//	    Workload:     campaign.Workload{Kind: "exponential", P1: 1},
//	    H:            0.5,
//	    Replications: 1000,
//	    Seed:         42,
//	}
//	res, err := campaign.Run(ctx, campaign.NewLocal(campaign.LocalConfig{}), spec)
//
// The root package repro remains the scalar convenience facade: its
// options write one Spec, which it runs through a LocalRunner.
package campaign
