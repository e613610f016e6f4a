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

// Config collects the simulation options the facade accepts. Zero values
// select the Hagerup defaults (exponential µ = 1 s, h = 0.5 s, seed 1,
// the fast "sim" backend).
type Config struct {
	work       workload.Workload
	workSpec   workload.Spec // declarative form of work, when expressible
	declarable bool          // workSpec mirrors work (false for WithWorkload)
	h          float64
	hSet       bool
	seed       uint64
	speeds     []float64
	startTimes []float64
	minChunk   int64
	chunk      int64
	first      int64
	last       int64
	alpha      float64
	weights    []float64
	hDynamics  bool
	msgCost    float64
	backend    string
	workers    int
	cacheDir   string
}

// Option customizes a simulation.
type Option func(*Config)

// WithExponential selects i.i.d. exponential task times with mean mu
// (the BOLD publication's workload).
func WithExponential(mu float64) Option {
	return func(c *Config) {
		c.work = workload.NewExponential(mu)
		c.workSpec = workload.Spec{Kind: "exponential", P1: mu}
		c.declarable = true
	}
}

// WithConstant selects constant task times of c seconds (the TSS
// publication's workload).
func WithConstant(taskTime float64) Option {
	return func(c *Config) {
		c.work = workload.NewConstant(taskTime)
		c.workSpec = workload.Spec{Kind: "constant", P1: taskTime}
		c.declarable = true
	}
}

// WithUniform selects i.i.d. uniform task times in [lo, hi).
func WithUniform(lo, hi float64) Option {
	return func(c *Config) {
		c.work = workload.NewUniformRandom(lo, hi)
		c.workSpec = workload.Spec{Kind: "uniform", P1: lo, P2: hi}
		c.declarable = true
	}
}

// WithIncreasing selects task times rising linearly from first to last
// over the n tasks of the simulation.
func WithIncreasing(first, last float64, n int64) Option {
	return func(c *Config) {
		c.work = workload.NewIncreasing(first, last, n)
		c.workSpec = workload.Spec{Kind: "increasing", P1: first, P2: last, N: n}
		c.declarable = true
	}
}

// WithWorkload installs any workload implementation directly. Workloads
// installed this way have no declarative description, so multi-run entry
// points fall back to direct execution and skip the result cache.
func WithWorkload(w workload.Workload) Option {
	return func(c *Config) {
		c.work = w
		c.declarable = false
	}
}

// WithOverhead sets the scheduling overhead h charged per scheduling
// operation in the wasted-time metric (paper §III-B).
func WithOverhead(h float64) Option {
	return func(c *Config) { c.h = h; c.hSet = true }
}

// WithOverheadInDynamics additionally charges h inside the master's
// service loop (ablation A1), serializing concurrent requests.
func WithOverheadInDynamics() Option {
	return func(c *Config) { c.hDynamics = true }
}

// WithMessageCost adds a fixed network cost per scheduling operation
// (ablation A3).
func WithMessageCost(seconds float64) Option {
	return func(c *Config) { c.msgCost = seconds }
}

// WithSeed selects the rand48 stream; equal seeds reproduce runs exactly.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.seed = seed }
}

// WithBackend selects the simulation backend executing the runs by
// registry name: "sim" (the fast chunk-granularity simulator, default),
// "des" (the process-oriented variant on the discrete-event kernel) or
// "msg" (the full SimGrid-MSG model with explicit messages). Backends()
// lists the registered names.
func WithBackend(name string) Option {
	return func(c *Config) { c.backend = name }
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
// result of the original execution without re-simulation. Configurations
// with no declarative description (WithWorkload) bypass the cache.
func WithCache(dir string) Option {
	return func(c *Config) { c.cacheDir = dir }
}

// WithSpeeds sets relative PE speeds (heterogeneous systems).
func WithSpeeds(speeds []float64) Option {
	return func(c *Config) { c.speeds = speeds }
}

// WithStartTimes sets uneven PE start times (the scenario GSS and TSS
// were designed for).
func WithStartTimes(starts []float64) Option {
	return func(c *Config) { c.startTimes = starts }
}

// WithMinChunk sets GSS(k)'s minimum chunk size k.
func WithMinChunk(k int64) Option {
	return func(c *Config) { c.minChunk = k }
}

// WithChunk sets CSS(k)'s fixed chunk size k.
func WithChunk(k int64) Option {
	return func(c *Config) { c.chunk = k }
}

// WithTSSBounds sets TSS's first and last chunk sizes.
func WithTSSBounds(first, last int64) Option {
	return func(c *Config) { c.first = first; c.last = last }
}

// WithAlpha sets TAP's confidence factor α.
func WithAlpha(alpha float64) Option {
	return func(c *Config) { c.alpha = alpha }
}

// WithWeights sets the fixed PE weights of WF (and the initial weights of
// the AWF family).
func WithWeights(weights []float64) Option {
	return func(c *Config) { c.weights = weights }
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

func buildConfig(n int64, p int, opts []Option) (Config, error) {
	if n <= 0 {
		return Config{}, fmt.Errorf("repro: task count n must be positive, got %d", n)
	}
	if p <= 0 {
		return Config{}, fmt.Errorf("repro: PE count p must be positive, got %d", p)
	}
	c := Config{seed: 1}
	for _, o := range opts {
		o(&c)
	}
	if c.work == nil {
		c.work = workload.NewExponential(1)
		c.workSpec = workload.Spec{Kind: "exponential", P1: 1}
		c.declarable = true
	}
	if !c.hSet {
		c.h = 0.5
	}
	return c, nil
}

// campaignSpec lifts the facade configuration into the engine's
// declarative campaign description, when it is expressible as one.
func (c Config) campaignSpec(techniques []string, n int64, p int, runs int, policy string) (engine.CampaignSpec, bool) {
	if !c.declarable {
		return engine.CampaignSpec{}, false
	}
	// The facade constructors accept some degenerate parameter sets the
	// declarative workload parser rejects (e.g. uniform with hi == lo).
	// Those keep running through the direct path, exactly as they did
	// before campaign specs existed, and simply bypass the result cache.
	if _, err := c.workSpec.Build(); err != nil {
		return engine.CampaignSpec{}, false
	}
	return engine.CampaignSpec{
		Backend:        c.backend,
		Techniques:     techniques,
		Ns:             []int64{n},
		Ps:             []int{p},
		Workload:       c.workSpec,
		H:              c.h,
		HInDynamics:    c.hDynamics,
		PerMessageCost: c.msgCost,
		Speeds:         c.speeds,
		StartTimes:     c.startTimes,
		MinChunk:       c.minChunk,
		Chunk:          c.chunk,
		First:          c.first,
		Last:           c.last,
		Alpha:          c.alpha,
		Weights:        c.weights,
		Replications:   runs,
		Seed:           c.seed,
		SeedPolicy:     policy,
	}, true
}

// resultCache opens the configured on-disk content-addressed store, if
// any.
func (c Config) resultCache() (cache.Store, error) {
	if c.cacheDir == "" {
		return nil, nil
	}
	disk, err := cache.NewDisk(c.cacheDir)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return disk, nil
}

// runCampaign executes a declarative campaign through a LocalRunner
// configured from the facade options — the facade is a thin convenience
// layer over campaign.Executor, so the same spec run here, through
// campaign.NewLocal directly, or through a remote client.Client yields
// bit-identical results.
func (c Config) runCampaign(ctx context.Context, spec campaign.Spec) (*campaign.Result, error) {
	store, err := c.resultCache()
	if err != nil {
		return nil, err
	}
	local := campaign.NewLocal(campaign.LocalConfig{Store: store, Workers: c.workers})
	defer local.Close()
	return local.Execute(ctx, spec, campaign.ExecOptions{})
}

// spec maps the facade configuration onto the engine's backend-neutral
// run description. The RNG state is the mixed seed, as the facade has
// always derived it.
func (c Config) spec(technique string, n int64, p int) engine.RunSpec {
	return engine.RunSpec{
		Technique:      technique,
		N:              n,
		P:              p,
		Work:           c.work,
		RNGState:       rng.Mix64(c.seed),
		Speeds:         c.speeds,
		StartTimes:     c.startTimes,
		H:              c.h,
		HInDynamics:    c.hDynamics,
		PerMessageCost: c.msgCost,
		MinChunk:       c.minChunk,
		Chunk:          c.chunk,
		First:          c.first,
		Last:           c.last,
		Alpha:          c.alpha,
		Weights:        c.weights,
	}
}

// result converts an engine result into the facade's Result.
func (c Config) result(n int64, res *engine.RunResult) *Result {
	out := &Result{
		Makespan:   res.Makespan,
		AvgWasted:  metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, c.h),
		SchedOps:   res.SchedOps,
		Compute:    res.Compute,
		Wasted:     metrics.PerWorkerWasted(res.Makespan, res.Compute, res.OpsPerWorker, c.h),
		TasksPerPE: res.TasksPerWorker,
	}
	if res.Makespan > 0 {
		out.Speedup = workload.Total(c.work, n) / res.Makespan
	}
	return out
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
	c, err := buildConfig(n, p, opts)
	if err != nil {
		return nil, err
	}
	be, err := engine.New(c.backend)
	if err != nil {
		return nil, err
	}
	res, err := be.Run(ctx, c.spec(technique, n, p))
	if err != nil {
		return nil, err
	}
	return c.result(n, res), nil
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
	if runs <= 0 {
		return 0, fmt.Errorf("repro: runs must be positive, got %d", runs)
	}
	c, err := buildConfig(n, p, opts)
	if err != nil {
		return 0, err
	}
	if spec, ok := c.campaignSpec([]string{technique}, n, p, runs, engine.SeedFacade); ok {
		res, err := c.runCampaign(ctx, spec)
		if err != nil {
			return 0, err
		}
		return res.Aggregates[0].Wasted.Mean, nil
	}
	// Workloads without a declarative description run directly.
	res, err := engine.Campaign{
		Backend:      c.backend,
		Points:       []engine.RunSpec{c.spec(technique, n, p)},
		Replications: runs,
		Workers:      c.workers,
		// Each run seeds its stream exactly as a serial
		// Simulate(WithSeed(rng.RunSeed(base, r))) loop would.
		SeedFor: func(_, r int) uint64 { return rng.Mix64(rng.RunSeed(c.seed, r)) },
	}.Run(ctx)
	if err != nil {
		return 0, err
	}
	return res.Aggregates[0].Wasted.Mean, nil
}

// Compare runs every named technique once under identical options and
// returns technique → average wasted time. Techniques execute
// concurrently; WithBackend targets any registered backend and WithCache
// serves repeated comparisons from the result store.
func Compare(techniques []string, n int64, p int, opts ...Option) (map[string]float64, error) {
	return CompareContext(context.Background(), techniques, n, p, opts...)
}

// CompareContext is Compare with a cancellation context, aborting the
// technique fan-out when ctx is cancelled.
func CompareContext(ctx context.Context, techniques []string, n int64, p int, opts ...Option) (map[string]float64, error) {
	if len(techniques) == 0 {
		return nil, fmt.Errorf("repro: Compare needs at least one technique")
	}
	// A duplicate name would silently collapse into one key of the
	// returned map; reject it on every path (the declarative spec
	// validation repeats this check for spec-level callers).
	seen := make(map[string]struct{}, len(techniques))
	for _, t := range techniques {
		if _, dup := seen[t]; dup {
			return nil, fmt.Errorf("repro: Compare: duplicate technique %q (each technique may appear once)", t)
		}
		seen[t] = struct{}{}
	}
	c, err := buildConfig(n, p, opts)
	if err != nil {
		return nil, err
	}
	var res *campaign.Result
	if spec, ok := c.campaignSpec(techniques, n, p, 1, engine.SeedShared); ok {
		res, err = c.runCampaign(ctx, spec)
		if err != nil {
			return nil, err
		}
	} else {
		points := make([]engine.RunSpec, len(techniques))
		for i, t := range techniques {
			points[i] = c.spec(t, n, p)
		}
		res, err = engine.Campaign{
			Backend:      c.backend,
			Points:       points,
			Replications: 1,
			Workers:      c.workers,
			// One run per technique under the facade's single-run seed,
			// as the serial WastedTime loop derived it.
			SeedFor: func(_, _ int) uint64 { return rng.Mix64(c.seed) },
		}.Run(ctx)
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(techniques))
	for i, t := range techniques {
		out[t] = res.Aggregates[i].Wasted.Mean
	}
	return out, nil
}
