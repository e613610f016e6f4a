package repro

import (
	"context"
	"fmt"

	"repro/campaign"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config collects the options the facade accepts: one declarative
// campaign spec that every option writes, and the execution knobs that
// never change results. Before the options run, the spec holds the
// Hagerup defaults: exponential task times with µ = 1 s, h = 0.5 s,
// seed 1 and the fast "sim" backend.
type Config struct {
	spec     engine.CampaignSpec
	workers  int
	cacheDir string
}

// Option customizes a simulation.
type Option func(*Config)

// WithExponential selects i.i.d. exponential task times with mean mu
// (the BOLD publication's workload).
func WithExponential(mu float64) Option {
	return func(c *Config) { c.spec.Workload = workload.Spec{Kind: "exponential", P1: mu} }
}

// WithConstant selects constant task times of c seconds (the TSS
// publication's workload).
func WithConstant(taskTime float64) Option {
	return func(c *Config) { c.spec.Workload = workload.Spec{Kind: "constant", P1: taskTime} }
}

// WithUniform selects i.i.d. uniform task times in [lo, hi).
func WithUniform(lo, hi float64) Option {
	return func(c *Config) { c.spec.Workload = workload.Spec{Kind: "uniform", P1: lo, P2: hi} }
}

// WithIncreasing selects task times rising linearly from first to last
// over n tasks; n = 0 ramps over the simulation's own task count.
func WithIncreasing(first, last float64, n int64) Option {
	return func(c *Config) {
		c.spec.Workload = workload.Spec{Kind: "increasing", P1: first, P2: last, N: n}
	}
}

// WithOverhead sets the scheduling overhead h charged per scheduling
// operation in the wasted-time metric (paper §III-B).
func WithOverhead(h float64) Option {
	return func(c *Config) { c.spec.H = h }
}

// WithOverheadInDynamics additionally charges h inside the master's
// service loop (ablation A1), serializing concurrent requests.
func WithOverheadInDynamics() Option {
	return func(c *Config) { c.spec.HInDynamics = true }
}

// WithMessageCost adds a fixed network cost per scheduling operation
// (ablation A3).
func WithMessageCost(seconds float64) Option {
	return func(c *Config) { c.spec.PerMessageCost = seconds }
}

// WithSeed selects the rand48 stream; equal seeds reproduce runs exactly.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.spec.Seed = seed }
}

// WithBackend selects the simulation backend executing the runs by
// registry name: "sim" (the fast chunk-granularity simulator, default),
// "des" (the process-oriented variant on the discrete-event kernel) or
// "msg" (the full SimGrid-MSG model with explicit messages). Backends()
// lists the registered names.
func WithBackend(name string) Option {
	return func(c *Config) { c.spec.Backend = name }
}

// WithRunWorkers bounds the number of concurrently executing replications
// in MeanWastedTime and Compare. The default (0) uses all CPU cores;
// results are identical for any worker count.
func WithRunWorkers(workers int) Option {
	return func(c *Config) { c.workers = workers }
}

// WithCache serves repeated multi-run campaigns (MeanWastedTime,
// Compare) from an on-disk content-addressed result store rooted at dir,
// keyed by the canonical hash of the campaign description. Because
// campaigns are bit-deterministic in their spec, a hit returns the exact
// result of the original execution without re-simulation.
func WithCache(dir string) Option {
	return func(c *Config) { c.cacheDir = dir }
}

// WithSpeeds sets relative PE speeds (heterogeneous systems).
func WithSpeeds(speeds []float64) Option {
	return func(c *Config) { c.spec.Speeds = speeds }
}

// WithStartTimes sets uneven PE start times (the scenario GSS and TSS
// were designed for).
func WithStartTimes(starts []float64) Option {
	return func(c *Config) { c.spec.StartTimes = starts }
}

// WithMinChunk sets GSS(k)'s minimum chunk size k.
func WithMinChunk(k int64) Option {
	return func(c *Config) { c.spec.MinChunk = k }
}

// WithChunk sets CSS(k)'s fixed chunk size k.
func WithChunk(k int64) Option {
	return func(c *Config) { c.spec.Chunk = k }
}

// WithTSSBounds sets TSS's first and last chunk sizes.
func WithTSSBounds(first, last int64) Option {
	return func(c *Config) { c.spec.First, c.spec.Last = first, last }
}

// WithAlpha sets TAP's confidence factor α.
func WithAlpha(alpha float64) Option {
	return func(c *Config) { c.spec.Alpha = alpha }
}

// WithWeights sets the fixed PE weights of WF (and the initial weights of
// the AWF family).
func WithWeights(weights []float64) Option {
	return func(c *Config) { c.spec.Weights = weights }
}

// Result reports one simulated loop execution.
type Result struct {
	Makespan   float64   // parallel completion time, seconds
	AvgWasted  float64   // average wasted time (paper §III-B)
	Speedup    float64   // sequential time over makespan
	SchedOps   int64     // number of scheduling operations
	Compute    []float64 // per-PE computing time
	Wasted     []float64 // per-PE wasted time
	TasksPerPE []int64
}

// Techniques returns the names accepted by the technique parameter of
// this package's functions.
func Techniques() []string { return sched.Names() }

// Backends returns the names accepted by WithBackend.
func Backends() []string { return engine.Names() }

// newConfig applies opts over the facade defaults, then sets the grid
// every entry point spans: the techniques at one n and one p, with runs
// replications per point under the given seed policy.
func newConfig(techniques []string, n int64, p int, runs int, policy string, opts []Option) Config {
	c := Config{spec: engine.CampaignSpec{
		Workload: workload.Spec{Kind: "exponential", P1: 1},
		H:        0.5,
		Seed:     1,
	}}
	for _, o := range opts {
		o(&c)
	}
	c.spec.Techniques = techniques
	c.spec.Ns = []int64{n}
	c.spec.Ps = []int{p}
	c.spec.Replications = runs
	c.spec.SeedPolicy = policy
	return c
}

// execute runs the configured campaign through a LocalRunner over the
// WithCache store, if any: the facade is a thin layer over
// campaign.Executor, so the same spec run through campaign.NewLocal
// directly or through a remote client.Client yields bit-identical
// results.
func (c Config) execute(ctx context.Context) (*campaign.Result, error) {
	var store cache.Store
	if c.cacheDir != "" {
		disk, err := cache.NewDisk(c.cacheDir)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		store = disk
	}
	local := campaign.NewLocal(campaign.LocalConfig{Store: store, Workers: c.workers})
	return local.Execute(ctx, c.spec, campaign.ExecOptions{})
}

// Simulate executes one master–worker loop execution of n tasks on p PEs
// under the named DLS technique and returns its timing results.
func Simulate(technique string, n int64, p int, opts ...Option) (*Result, error) {
	return SimulateContext(context.Background(), technique, n, p, opts...)
}

// SimulateContext is Simulate with a cancellation context: a cancelled
// ctx aborts before the run starts (the built-in simulators complete an
// already-started run) and returns an error wrapping ctx.Err().
func SimulateContext(ctx context.Context, technique string, n int64, p int, opts ...Option) (*Result, error) {
	// The shared seed policy names Simulate's derivation: the run's
	// state is the mixed seed.
	c := newConfig([]string{technique}, n, p, 1, engine.SeedShared, opts)
	points, err := c.spec.Points()
	if err != nil {
		return nil, err
	}
	be, err := engine.New(c.spec.Backend)
	if err != nil {
		return nil, err
	}
	rs := points[0]
	rs.RNGState = rng.Mix64(c.spec.Seed)
	res, err := be.Run(ctx, rs)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Makespan:   res.Makespan,
		AvgWasted:  metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, rs.H),
		SchedOps:   res.SchedOps,
		Compute:    res.Compute,
		Wasted:     metrics.PerWorkerWasted(res.Makespan, res.Compute, res.OpsPerWorker, rs.H),
		TasksPerPE: res.TasksPerWorker,
	}
	if res.Makespan > 0 {
		out.Speedup = workload.Total(rs.Work, n) / res.Makespan
	}
	return out, nil
}

// WastedTime returns the average wasted time of a single simulated run —
// the quantity of the paper's Figures 5–8.
func WastedTime(technique string, n int64, p int, opts ...Option) (float64, error) {
	res, err := Simulate(technique, n, p, opts...)
	if err != nil {
		return 0, err
	}
	return res.AvgWasted, nil
}

// MeanWastedTime averages the wasted time over the given number of
// independent runs (the paper uses 1000), deriving one rand48 stream per
// run from the configured seed. Replications execute concurrently on the
// configured backend through the engine's streaming campaign pipeline;
// the result is identical to running them serially, and with WithCache a
// repeated call is served from the content-addressed result store.
func MeanWastedTime(technique string, n int64, p int, runs int, opts ...Option) (float64, error) {
	return MeanWastedTimeContext(context.Background(), technique, n, p, runs, opts...)
}

// MeanWastedTimeContext is MeanWastedTime with a cancellation context:
// cancelling ctx stops scheduling new replications, drains the worker
// pool and returns an error wrapping ctx.Err().
func MeanWastedTimeContext(ctx context.Context, technique string, n int64, p int, runs int, opts ...Option) (float64, error) {
	// Run r draws the state a serial Simulate(WithSeed(rng.RunSeed(base,
	// r))) loop would: the facade seed policy.
	res, err := newConfig([]string{technique}, n, p, runs, engine.SeedFacade, opts).execute(ctx)
	if err != nil {
		return 0, err
	}
	return res.Aggregates[0].Wasted.Mean, nil
}

// Compare runs every named technique once under identical options and
// returns technique → average wasted time. Techniques execute
// concurrently; WithBackend targets any registered backend and WithCache
// serves repeated comparisons from the result store. A duplicate
// technique, which would collapse into one key of the map, is an error.
func Compare(techniques []string, n int64, p int, opts ...Option) (map[string]float64, error) {
	return CompareContext(context.Background(), techniques, n, p, opts...)
}

// CompareContext is Compare with a cancellation context, aborting the
// technique fan-out when ctx is cancelled.
func CompareContext(ctx context.Context, techniques []string, n int64, p int, opts ...Option) (map[string]float64, error) {
	// Every technique runs once under the facade's single-run state.
	res, err := newConfig(techniques, n, p, 1, engine.SeedShared, opts).execute(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(techniques))
	for i, t := range techniques {
		out[t] = res.Aggregates[i].Wasted.Mean
	}
	return out, nil
}
