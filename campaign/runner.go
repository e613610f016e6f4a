package campaign

import (
	"context"
	"fmt"
)

// Job is the handle a Runner returns for a submitted campaign.
type Job struct {
	// ID addresses the job in Wait, Stream and Cancel calls.
	ID string `json:"id"`
	// Hash is the campaign spec's canonical content address; identical
	// specs share it, and runners deduplicate concurrent submissions on
	// it.
	Hash string `json:"hash"`
	// Deduped reports that this submission joined an already queued or
	// running job with the same hash instead of enqueuing a new
	// execution.
	Deduped bool `json:"deduped"`
}

// Runner is the asynchronous job API of a node that executes
// campaigns: a dlsimd daemon reached over HTTP (client.Client), whose
// job queue is the one queue campaigns wait in. A fleet coordinator
// places its shards through it. Callers that want a campaign's result
// run it through an Executor instead; client.Client is one too.
type Runner interface {
	// Submit validates the spec and enqueues it, returning a job handle.
	// Submitting a spec whose hash matches a queued or running job joins
	// that job (Deduped true) instead of executing twice. A runner at
	// queue capacity fails with an error matching ErrQueueFull; a
	// shut-down runner with ErrClosed.
	Submit(ctx context.Context, spec Spec) (Job, error)

	// Wait blocks until the job reaches a terminal state (done, failed
	// or cancelled) or ctx is cancelled, and returns its final snapshot.
	Wait(ctx context.Context, id string) (Snapshot, error)

	// Stream waits for the job to complete and delivers its per-run
	// events to the sinks in deterministic (point, replication) order —
	// the identical byte stream every consumer of this job observes.
	// Every sink is closed exactly once, on success and error alike. A
	// failed or cancelled job is an error.
	Stream(ctx context.Context, id string, sinks ...Sink) error

	// Cancel aborts a queued or running job. Cancelling a terminal job
	// is a no-op; an unknown ID fails with an error matching
	// ErrNotFound. Running jobs reach StateCancelled asynchronously —
	// Wait for the terminal state.
	Cancel(ctx context.Context, id string) error

	// Describe reports the runner's capabilities: accepted techniques,
	// backends and seed policies.
	Describe(ctx context.Context) (Description, error)
}

// ExecOptions carries the execution parameters of a one-shot Execute
// call — everything that may change how results arrive but never what
// they are.
type ExecOptions struct {
	// KeepPerRun retains the per-run metrics in each Aggregate.
	KeepPerRun bool
	// Sinks additionally observe the ordered per-run event stream.
	Sinks []Sink
}

// Executor is the one interface a campaign is run through, to its
// aggregated result. LocalRunner calls straight into the engine;
// client.Client submits to its daemon and folds the streamed events
// through an Aggregator; distrib.Coordinator shards the spec across a
// fleet and merges the shard streams. Aggregation is a deterministic
// fold, so all three return bit-identical results for a given spec.
// Sinks in opts observe the ordered per-run event stream and are
// closed exactly once on every path.
type Executor interface {
	Execute(ctx context.Context, spec Spec, opts ExecOptions) (*Result, error)
}

// CloseSinks closes every sink exactly once, preserving first (or the
// first close error when first is nil) — the shared tail of the Sink
// contract every Runner and Executor must honor on success and error
// paths alike.
func CloseSinks(first error, sinks ...Sink) error {
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = fmt.Errorf("campaign: sink close: %w", err)
		}
	}
	return first
}

// Run drives any Executor with default options: Run(ctx, e, spec,
// sinks...) executes the campaign and returns its aggregates while the
// sinks observe the per-run stream.
func Run(ctx context.Context, e Executor, spec Spec, sinks ...Sink) (*Result, error) {
	return e.Execute(ctx, spec, ExecOptions{Sinks: sinks})
}
