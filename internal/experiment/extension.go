package experiment

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/workload"
)

// This file implements the paper's stated future work (§VI): "Future
// work remains for verifying the TAP and the adaptive techniques (AF,
// AWF, and AWF-B/C)." It runs the future-work techniques through the
// same Hagerup harness as the verified set, plus the parameter sweeps
// the TSS publication describes (GSS(k) for k = 1, 2, 5, 10, 20, …,
// ⌊I/P⌋ and the CSS(k) chunk-size study).

// FutureWorkSpec configures the future-work grid: the extension
// techniques measured under the Hagerup parameters.
func FutureWorkSpec(seed uint64) HagerupSpec {
	s := HagerupGrid(seed)
	s.Techniques = []string{"TAP", "WF", "AWF", "AWF-B", "AWF-C", "AF"}
	return s
}

// GSSSweepResult reports the wasted time of GSS(k) for each k of the
// sweep.
type GSSSweepResult struct {
	Ks     []int64
	Wasted []float64 // mean over runs, aligned with Ks
	Ops    []float64 // mean scheduling operations
}

// GSSSweep measures GSS(k) over the k values the TSS publication tests
// (1, 2, 5, 10, 20, ⌊n/p⌋) on one Hagerup-style cell. Each k is a
// one-point campaign seeded seed ^ k<<32 under the flat policy; its
// runs execute concurrently.
func GSSSweep(ctx context.Context, n int64, p int, runs int, mu, h float64, seed uint64) (*GSSSweepResult, error) {
	if runs <= 0 || n <= 0 || p <= 0 {
		return nil, fmt.Errorf("experiment: invalid GSS sweep (n=%d p=%d runs=%d)", n, p, runs)
	}
	out := &GSSSweepResult{Ks: []int64{1, 2, 5, 10, 20, n / int64(p)}}
	for _, k := range out.Ks {
		res, err := engine.CampaignSpec{
			Techniques:   []string{"GSS"},
			Ns:           []int64{n},
			Ps:           []int{p},
			Workload:     workload.Spec{Kind: "exponential", P1: mu},
			H:            h,
			MinChunk:     k,
			Replications: runs,
			Seed:         seed ^ uint64(k)<<32,
			SeedPolicy:   engine.SeedFlat,
		}.Execute(ctx, engine.ExecConfig{})
		if err != nil {
			return nil, err
		}
		out.Wasted = append(out.Wasted, res.Aggregates[0].Wasted.Mean)
		out.Ops = append(out.Ops, res.Aggregates[0].MeanOps)
	}
	return out, nil
}

// CSSSweepResult reports the speedup of CSS(k) over a range of chunk
// sizes — the chunk-size study of the TSS publication ("the optimal
// choice of the chunk size k is machine and application dependent").
type CSSSweepResult struct {
	Ks       []int64
	Speedups []float64
}

// CSSSweep measures CSS(k) speedup for a geometric range of k on the
// TSS experiment-1 configuration (constant workload, fast-sim network
// model). The sweep brackets the publication's reported optimum
// k = n/p.
func CSSSweep(ctx context.Context, n int64, p int, taskTime float64, masterOverhead, rtt float64) (*CSSSweepResult, error) {
	if n <= 0 || p <= 0 || taskTime <= 0 {
		return nil, fmt.Errorf("experiment: invalid CSS sweep (n=%d p=%d task=%v)", n, p, taskTime)
	}
	res := &CSSSweepResult{}
	seq := taskTime * float64(n)
	ks := []int64{}
	for k := int64(1); k <= 4*n/int64(p); k *= 4 {
		ks = append(ks, k)
	}
	// Always include the publication's recommended k = n/p (it yields
	// exactly one chunk per PE and reported speedup 69.2 of 72).
	ks = append(ks, n/int64(p))
	be, err := engine.New(engine.DefaultBackend)
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		out, err := be.Run(ctx, engine.RunSpec{
			Technique:      "CSS",
			N:              n,
			P:              p,
			Work:           workload.NewConstant(taskTime),
			Chunk:          k,
			H:              masterOverhead,
			HInDynamics:    masterOverhead > 0,
			PerMessageCost: rtt,
		})
		if err != nil {
			return nil, err
		}
		res.Ks = append(res.Ks, k)
		res.Speedups = append(res.Speedups, seq/out.Makespan)
	}
	return res, nil
}
