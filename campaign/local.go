package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// LocalConfig parameterizes a LocalRunner. The zero value is usable:
// no persistent store, all CPU cores. The job queue holds up to 64
// waiting jobs and runs one campaign at a time, each with an auto-sized
// replication chunk (engine.ExecConfig.ChunkSize).
type LocalConfig struct {
	// Store holds completed campaign results content-addressed by spec
	// hash; repeated specs are then served with zero simulator runs.
	// Nil keeps synchronous Execute calls uncached and gives the
	// asynchronous job queue a fresh in-memory store.
	Store Store

	// Workers bounds concurrently executing runs per campaign; 0 selects
	// GOMAXPROCS. Results are identical for any worker count.
	Workers int
}

// LocalRunner executes campaigns in-process through the engine's worker
// pool, cache and context plumbing. It implements Executor (calling
// straight into the engine) and Runner (asynchronous
// submit/wait/stream/cancel over a bounded job queue with singleflight
// deduplication — the node API a fleet coordinator places shards
// through). The job
// queue's goroutines start lazily on first Submit, so purely synchronous
// users pay nothing for the asynchronous machinery.
//
// A LocalRunner is safe for concurrent use. Call Close when done to
// cancel in-flight jobs and reclaim the queue's goroutines; Close is
// irreversible (subsequent Submits fail with ErrClosed) but synchronous
// Execute calls keep working.
type LocalRunner struct {
	cfg LocalConfig

	mu     sync.Mutex
	mgr    *jobs.Manager
	closed bool
}

// NewLocal returns a LocalRunner with the given configuration.
func NewLocal(cfg LocalConfig) *LocalRunner { return &LocalRunner{cfg: cfg} }

var (
	_ Runner   = (*LocalRunner)(nil)
	_ Executor = (*LocalRunner)(nil)
)

// manager lazily starts the job queue.
func (r *LocalRunner) manager() (*jobs.Manager, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if r.mgr == nil {
		r.mgr = jobs.NewManager(jobs.Config{Store: r.cfg.Store, Workers: r.cfg.Workers})
	}
	return r.mgr, nil
}

// Execute implements Executor: the synchronous in-process path, calling
// straight into the engine with the runner's store and worker bound.
func (r *LocalRunner) Execute(ctx context.Context, spec Spec, opts ExecOptions) (*Result, error) {
	return spec.Execute(ctx, engine.ExecConfig{
		Workers:    r.cfg.Workers,
		KeepPerRun: opts.KeepPerRun,
		Cache:      r.cfg.Store,
		Sinks:      opts.Sinks,
	})
}

// Submit implements Runner.
func (r *LocalRunner) Submit(ctx context.Context, spec Spec) (Job, error) {
	if err := ctx.Err(); err != nil {
		return Job{}, fmt.Errorf("campaign: submit: %w", err)
	}
	mgr, err := r.manager()
	if err != nil {
		return Job{}, err
	}
	j, deduped, err := mgr.Submit(spec)
	if err != nil {
		return Job{}, err
	}
	return Job{ID: j.ID(), Hash: j.Hash(), Deduped: deduped}, nil
}

// Wait implements Runner.
func (r *LocalRunner) Wait(ctx context.Context, id string) (Snapshot, error) {
	mgr, err := r.manager()
	if err != nil {
		return Snapshot{}, err
	}
	return mgr.Wait(ctx, id)
}

// Stream implements Runner: it waits for the job, then replays its
// deterministic event stream into the sinks (served from the result
// store — zero simulator runs). Every sink is closed exactly once.
func (r *LocalRunner) Stream(ctx context.Context, id string, sinks ...Sink) error {
	mgr, err := r.manager()
	if err != nil {
		return CloseSinks(err, sinks...)
	}
	snap, err := mgr.Wait(ctx, id)
	if err != nil {
		return CloseSinks(err, sinks...)
	}
	if snap.State != StateDone {
		return CloseSinks(fmt.Errorf("campaign: job %s is %s: %s", id, snap.State, snap.Error), sinks...)
	}
	// mgr.Results replays through the engine, which owns closing the
	// sinks on every path from here.
	return mgr.Results(ctx, id, sinks...)
}

// Cancel implements Runner.
func (r *LocalRunner) Cancel(_ context.Context, id string) error {
	mgr, err := r.manager()
	if err != nil {
		return err
	}
	return mgr.Cancel(id)
}

// Describe implements Runner. The description's Execution block
// reports this runner's effective configuration: the host CPU count,
// the worker pool Workers resolves to, an auto-sized chunk (0) and one
// campaign at a time.
func (r *LocalRunner) Describe(context.Context) (Description, error) {
	d := LocalDescription()
	d.Execution = &Execution{
		CPUs:        runtime.NumCPU(),
		Workers:     effectiveWorkers(r.cfg.Workers),
		Concurrency: 1,
	}
	return d, nil
}

// effectiveWorkers resolves the Workers knob's zero default the same
// way the engine does (engine.ExecConfig.Workers).
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Close shuts the runner down: submissions start failing with
// ErrClosed, queued and running jobs are cancelled, and the queue's
// goroutines are reclaimed. Safe to call more than once.
func (r *LocalRunner) Close() {
	r.mu.Lock()
	mgr := r.mgr
	r.closed = true
	r.mu.Unlock()
	if mgr != nil {
		mgr.Close()
	}
}
