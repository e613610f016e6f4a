// Package experiment orchestrates the reproducibility experiments of the
// paper's evaluation (§IV): the Hagerup wasted-time grid (Figures 5–8,
// Table III), the per-run FAC analysis (Figure 9) and the Tzen–Ni speedup
// curves (Figures 3–4).
//
// The paper ran its measurements "in parallel on the HPC cluster taurus"
// (§V); this package parallelizes the independent runs of an experiment
// over local CPU cores instead. Results are bit-reproducible for a given
// seed regardless of the degree of parallelism, because every run draws
// from an independently derived rand48 stream (rng.StreamFor).
package experiment

import (
	"context"
	"fmt"
	"sort"

	"repro/campaign"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// HagerupSpec describes a grid of wasted-time experiments following the
// BOLD publication's experiment 1 (paper §III-B, Table III). It is a
// thin experiment-level view over the engine's declarative CampaignSpec
// (see CampaignSpec); RunHagerup compiles to one and executes it through
// the streaming results pipeline.
type HagerupSpec struct {
	Techniques []string // DLS techniques to measure
	Ns         []int64  // task counts
	Ps         []int    // PE counts
	Runs       int      // runs per cell (paper: 1000)
	Mu         float64  // exponential mean task time (paper: 1 s)
	H          float64  // scheduling overhead per operation (paper: 0.5 s)
	Seed       uint64   // base seed; all run streams derive from it
	KeepPerRun bool     // retain per-run wasted times (needed for Figure 9)
	Backend    string   // engine backend executing the runs; "" = "sim"

	// Sinks additionally observe every run's metrics as a deterministic
	// stream (e.g. engine.NewCSVSink for raw-data export).
	Sinks []engine.Sink

	// Runner executes the grid: a LocalRunner carrying its own result
	// store and worker bound, or a client.Client running the experiment
	// on a remote dlsimd (the repro CLI's -server flag). Nil selects
	// campaign.NewLocal(campaign.LocalConfig{}): no store, all CPU
	// cores. Results are bit-identical on every executor.
	Runner campaign.Executor
}

// Validate checks the spec for usability.
func (s HagerupSpec) Validate() error {
	if len(s.Techniques) == 0 || len(s.Ns) == 0 || len(s.Ps) == 0 {
		return fmt.Errorf("experiment: empty technique/N/P lists")
	}
	if s.Runs <= 0 {
		return fmt.Errorf("experiment: Runs must be positive, got %d", s.Runs)
	}
	if s.Mu <= 0 {
		return fmt.Errorf("experiment: Mu must be positive, got %v", s.Mu)
	}
	if s.H < 0 {
		return fmt.Errorf("experiment: H must be non-negative, got %v", s.H)
	}
	for _, tech := range s.Techniques {
		if _, err := sched.New(tech, sched.Params{N: 16, P: 2, H: s.H, Mu: s.Mu, Sigma: s.Mu}); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	if _, err := engine.New(s.Backend); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

// HagerupGrid returns the paper's Table III specification: eight
// techniques, n ∈ {1024; 8192; 65536; 524288}, p ∈ {2; 8; 64; 256; 1024},
// 1000 runs, exponential µ = 1 s, h = 0.5 s.
func HagerupGrid(seed uint64) HagerupSpec {
	return HagerupSpec{
		Techniques: sched.VerifiedNames(),
		Ns:         []int64{1024, 8192, 65536, 524288},
		Ps:         []int{2, 8, 64, 256, 1024},
		Runs:       1000,
		Mu:         1,
		H:          0.5,
		Seed:       seed,
	}
}

// Cell is the aggregated measurement of one (technique, n, p) grid cell.
type Cell struct {
	Technique string
	N         int64
	P         int

	Wasted  metrics.Summary // average wasted time over the runs
	MeanOps float64         // mean scheduling operations per run
	PerRun  []float64       // per-run wasted times (only when KeepPerRun)
}

// HagerupResult holds all cells of a grid, indexable by (tech, n, p).
type HagerupResult struct {
	Spec  HagerupSpec
	Cells []Cell
	index map[string]int
}

// Cell returns the cell for (technique, n, p), or an error.
func (r *HagerupResult) Cell(tech string, n int64, p int) (*Cell, error) {
	i, ok := r.index[cellKey(tech, n, p)]
	if !ok {
		return nil, fmt.Errorf("experiment: no cell %s n=%d p=%d", tech, n, p)
	}
	return &r.Cells[i], nil
}

func cellKey(tech string, n int64, p int) string {
	return fmt.Sprintf("%s/%d/%d", tech, n, p)
}

// OneHagerupRun executes a single run of one cell on the default backend
// and returns its average wasted time and the number of scheduling
// operations.
func OneHagerupRun(ctx context.Context, tech string, n int64, p int, mu, h float64, stream *rng.Rand48) (wasted float64, ops int64, err error) {
	be, err := engine.New(engine.DefaultBackend)
	if err != nil {
		return 0, 0, err
	}
	res, err := be.Run(ctx, hagerupSpec(tech, n, p, mu, h, stream.State()))
	if err != nil {
		return 0, 0, err
	}
	return metrics.AverageWasted(res.Makespan, res.Compute, res.SchedOps, h), res.SchedOps, nil
}

// hagerupSpec maps one grid cell onto the engine's run description. H is
// charged post hoc in the metrics, as the paper's faithful mode does, so
// the spec carries it without enabling HInDynamics.
func hagerupSpec(tech string, n int64, p int, mu, h float64, state uint64) engine.RunSpec {
	return engine.RunSpec{
		Technique: tech,
		N:         n,
		P:         p,
		Work:      workload.NewExponential(mu),
		H:         h,
		RNGState:  state,
	}
}

// CampaignSpec returns the declarative engine campaign describing the
// whole grid: every (n, p, technique) cell as one campaign point under
// the per-cell seed policy, which reproduces exactly the per-cell stream
// derivation this package has always used. The spec is plain data — its
// canonical hash is the grid's content address in the result cache.
func (s HagerupSpec) CampaignSpec() engine.CampaignSpec {
	return engine.CampaignSpec{
		Backend:      s.Backend,
		Techniques:   s.Techniques,
		Ns:           s.Ns,
		Ps:           s.Ps,
		Workload:     workload.Spec{Kind: "exponential", P1: s.Mu},
		H:            s.H,
		Replications: s.Runs,
		Seed:         s.Seed,
		SeedPolicy:   engine.SeedPerCell,
	}
}

// RunHagerup executes the full grid as one campaign through
// spec.Runner, streaming the independent runs through the results
// pipeline. Cancelling ctx aborts the grid with an error wrapping
// ctx.Err().
func RunHagerup(ctx context.Context, spec HagerupSpec) (*HagerupResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	runner := spec.Runner
	if runner == nil {
		runner = campaign.NewLocal(campaign.LocalConfig{})
	}
	res, err := runner.Execute(ctx, spec.CampaignSpec(), campaign.ExecOptions{
		KeepPerRun: spec.KeepPerRun,
		Sinks:      spec.Sinks,
	})
	if err != nil {
		return nil, err
	}
	result := &HagerupResult{Spec: spec, index: make(map[string]int)}
	// Aggregates expand in the same n-major, p, technique order as the
	// grid cells.
	i := 0
	for _, n := range spec.Ns {
		for _, p := range spec.Ps {
			for _, tech := range spec.Techniques {
				agg := res.Aggregates[i]
				i++
				cell := Cell{Technique: tech, N: n, P: p, Wasted: agg.Wasted, MeanOps: agg.MeanOps}
				if spec.KeepPerRun {
					cell.PerRun = make([]float64, len(agg.PerRun))
					for j, m := range agg.PerRun {
						cell.PerRun[j] = m.Wasted
					}
				}
				result.index[cellKey(tech, n, p)] = len(result.Cells)
				result.Cells = append(result.Cells, cell)
			}
		}
	}
	return result, nil
}

// Series extracts, for one technique and task count, the mean wasted time
// per PE count — one line of the paper's Figures 5a–8a style plots.
func (r *HagerupResult) Series(tech string, n int64) (ps []int, means []float64, err error) {
	ps = append(ps, r.Spec.Ps...)
	sort.Ints(ps)
	for _, p := range ps {
		c, err := r.Cell(tech, n, p)
		if err != nil {
			return nil, nil, err
		}
		means = append(means, c.Wasted.Mean)
	}
	return ps, means, nil
}
