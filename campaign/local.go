package campaign

import (
	"context"

	"repro/internal/engine"
)

// LocalConfig parameterizes a LocalRunner. The zero value is usable:
// no result store, all CPU cores.
type LocalConfig struct {
	// Store holds completed campaign results content-addressed by spec
	// hash; repeated specs are then served with zero simulator runs.
	// Nil leaves Execute uncached.
	Store Store

	// Workers bounds concurrently executing runs per campaign; 0 selects
	// GOMAXPROCS. Results are identical for any worker count.
	Workers int
}

// LocalRunner is the in-process Executor: it calls straight into the
// engine's worker pool, result store and context plumbing. It holds no
// goroutines or other resources between calls and is safe for
// concurrent use. The asynchronous job API (Runner) is a node's: a
// dlsimd daemon's, reached through client.Client.
type LocalRunner struct {
	cfg LocalConfig
}

// NewLocal returns a LocalRunner with the given configuration.
func NewLocal(cfg LocalConfig) *LocalRunner { return &LocalRunner{cfg: cfg} }

var _ Executor = (*LocalRunner)(nil)

// Execute implements Executor with the runner's store and worker bound.
func (r *LocalRunner) Execute(ctx context.Context, spec Spec, opts ExecOptions) (*Result, error) {
	return spec.Execute(ctx, engine.ExecConfig{
		Workers:    r.cfg.Workers,
		KeepPerRun: opts.KeepPerRun,
		Cache:      r.cfg.Store,
		Sinks:      opts.Sinks,
	})
}
