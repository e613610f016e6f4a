// Package engine is the unified simulation layer between the facade (and
// the CLIs) and the concrete simulators. It answers two questions every
// entry point used to answer for itself:
//
//  1. Which simulator executes one loop run? A Backend abstracts over the
//     chunk-granularity Hagerup-replica simulator (internal/sim), the
//     process-oriented variant on the bare discrete-event kernel
//     (internal/des) and the full SimGrid-MSG model with explicit
//     messages (internal/msg). Backends are selected by name through a
//     registry mirroring sched.New, so any caller can switch simulators
//     without code changes.
//
//  2. How do many runs execute? A Campaign fans a (point × replication)
//     grid out over a bounded worker pool with deterministic per-run
//     seed derivation and aggregates per-run metrics independently of
//     completion order, so results are bit-reproducible for a given seed
//     regardless of the degree of parallelism (DESIGN.md §6; the paper
//     itself ran its 1000-replication campaigns "in parallel on the HPC
//     cluster taurus", §V).
package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// RunSpec fully describes one simulated loop execution, independent of
// the backend that executes it. It is a plain value: copying it and
// overwriting RNGState is how campaigns derive per-replication runs.
type RunSpec struct {
	Technique string            // DLS technique name for sched.New
	N         int64             // number of tasks
	P         int               // number of worker PEs
	Work      workload.Workload // per-task execution times

	// RNGState is the full 48-bit rand48 state of the run's random
	// stream (rng.FromState). Callers derive it per run, e.g. via
	// rng.RunSeed; backends must consume randomness in chunk-assignment
	// order so equal states reproduce runs across backends.
	RNGState uint64

	Speeds     []float64 // relative PE speeds; nil means all 1.0
	StartTimes []float64 // per-PE start times; nil means all 0

	H              float64 // scheduling overhead per operation, seconds
	HInDynamics    bool    // charge H inside the master's service loop (ablation A1)
	PerMessageCost float64 // fixed network cost per scheduling operation (ablation A3)

	MinChunk int64     // GSS(k)
	Chunk    int64     // CSS(k)
	First    int64     // TSS first chunk
	Last     int64     // TSS last chunk
	Alpha    float64   // TAP confidence factor
	Weights  []float64 // WF/AWF* PE weights

	// Observe, when non-nil, is called once per scheduling operation
	// (internal/trace.Recorder has this shape). Only the event-driven
	// backends (sim, des) support observation; msg rejects it.
	Observe func(worker int, start, count int64, assigned, done float64)
}

// Validate checks the spec fields every backend depends on.
func (s RunSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("engine: N must be positive, got %d", s.N)
	}
	if s.P <= 0 {
		return fmt.Errorf("engine: P must be positive, got %d", s.P)
	}
	if s.Work == nil {
		return fmt.Errorf("engine: RunSpec.Work is nil")
	}
	if err := checkPEVectors(s.Speeds, s.StartTimes, s.P); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// checkPEVectors checks per-PE speeds and start times against p workers:
// one entry per worker, every speed finite and positive, every start
// time finite. A nil slice means the default for every worker. A NaN
// would otherwise pass every comparison the simulators make and
// silently corrupt the run.
func checkPEVectors(speeds, starts []float64, p int) error {
	if speeds != nil && len(speeds) != p {
		return fmt.Errorf("got %d speeds for %d workers", len(speeds), p)
	}
	if starts != nil && len(starts) != p {
		return fmt.Errorf("got %d start times for %d workers", len(starts), p)
	}
	for w, v := range speeds {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("speed %v of worker %d is not finite and positive", v, w)
		}
	}
	for w, v := range starts {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("start time %v of worker %d is not finite", v, w)
		}
	}
	return nil
}

// Scheduler builds the spec's chunk calculator. Schedulers are stateful
// per run: a runner builds one per point and Resets it before each run.
func (s RunSpec) Scheduler() (sched.Scheduler, error) {
	return sched.New(s.Technique, sched.Params{
		N: s.N, P: s.P,
		H: s.H, Mu: s.Work.Mean(), Sigma: s.Work.Std(),
		MinChunk: s.MinChunk, Chunk: s.Chunk,
		First: s.First, Last: s.Last,
		Alpha: s.Alpha, Weights: s.Weights,
	})
}

// RNG returns the run's random stream.
func (s RunSpec) RNG() *rng.Rand48 { return rng.FromState(s.RNGState) }

// RunResult reports one simulated execution in backend-independent form.
type RunResult struct {
	Makespan float64   // completion time of the last task, seconds
	Compute  []float64 // per-worker total computation time

	SchedOps       int64   // total scheduling operations (chunks)
	OpsPerWorker   []int64 // scheduling operations per worker
	TasksPerWorker []int64 // tasks executed per worker

	// CommTime is the total time attributed to communication: the summed
	// per-message costs (sim, des) or the workers' send+receive wait time
	// (msg).
	CommTime float64
	// MasterBusy is the master's total service time (HInDynamics mode;
	// always 0 for the msg backend, which folds service into Makespan).
	MasterBusy float64
}

// Backend is one simulator. Implementations must be safe for concurrent
// Run and NewRunner calls: the campaign pipeline shares one backend
// value among its worker goroutines.
type Backend interface {
	// Name returns the registered backend name (e.g. "sim", "msg").
	Name() string
	// Run executes one spec to completion and returns its timing
	// results. Implementations must return promptly with ctx.Err() when
	// the context is cancelled before the run starts; honoring
	// cancellation mid-run is optional (the built-in simulators complete
	// the run), so campaign-level cancellation has run granularity.
	Run(ctx context.Context, spec RunSpec) (*RunResult, error)
	// NewRunner validates the point spec once and returns a Runner that
	// executes its replications. Campaigns execute every run through
	// one.
	NewRunner(spec RunSpec) (Runner, error)
}

// Runner executes many runs of one campaign point with per-run setup
// amortized away: the spec is validated once, the scheduler is Reset
// instead of rebuilt, and result buffers are pooled, so the steady-state
// hot path allocates nothing. A Runner must only be handed specs that
// differ from its point in RNGState. It is NOT safe for concurrent use
// — the campaign pipeline keeps one per worker goroutine.
type Runner interface {
	// Run executes the spec. The returned result and its slices alias
	// the runner's internal buffers and are valid only until the next
	// Run call.
	Run(ctx context.Context, spec RunSpec) (*RunResult, error)
	// Rebind re-points the runner at a new campaign point while keeping
	// its arenas and pooled buffers, so one per-worker runner serves a
	// whole share of the grid. After a successful Rebind the runner
	// behaves exactly like a fresh NewRunner(spec); after a failed one
	// it may not be used again.
	Rebind(spec RunSpec) error
}

// RunnerBackend and Rebinder are aliases of Backend and Runner, kept
// because the benchmark module (bench/layers.go) names them.
type (
	RunnerBackend = Backend
	Rebinder      = Runner
)

// runOnce is the built-in backends' Run: one run on a throwaway runner.
// Nothing else reuses the runner, so its aliased result needs no copy.
func runOnce(ctx context.Context, be Backend, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := be.NewRunner(spec) // validates the spec
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, spec)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Backend)
	regOrder   []string
)

// DefaultBackend is the backend used when no name is given: the fast
// chunk-granularity simulator the paper's figures are produced with.
const DefaultBackend = "sim"

// Register adds a backend under its Name. It panics on duplicates or
// empty names, mirroring database/sql.Register — registration happens in
// package init functions where an error return would be unusable.
func Register(b Backend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	name := b.Name()
	if name == "" {
		panic("engine: Register with empty backend name")
	}
	if _, dup := registry[name]; dup {
		panic("engine: duplicate backend " + name)
	}
	registry[name] = b
	regOrder = append(regOrder, name)
}

// New returns the named backend; the empty name selects DefaultBackend.
func New(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown backend %q (known: %v)", name, namesLocked())
	}
	return b, nil
}

// Names lists the registered backend names in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	sort.Strings(out)
	return out
}
