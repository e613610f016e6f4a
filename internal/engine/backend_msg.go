package engine

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/rng"
)

// msgBackend adapts the full SimGrid-MSG-style model (internal/msg): a
// master owning the chunk calculator exchanges explicit
// request/assignment messages with one worker per PE over a star
// platform. It is the verification-grade backend — about 3.5 times the
// cost per scheduling operation of "sim" (about 0.34 µs against 0.1 µs
// in the benchmark's traced runs on a 2-CPU x86-64 host), but with
// real message dynamics.
//
// Mapping of the backend-independent knobs:
//
//   - PerMessageCost c maps to a per-link latency of c/4 (a scheduling
//     operation is one request plus one reply, each crossing the worker
//     link and the backbone), so the per-operation cost matches the sim
//     backend's. c = 0 selects the paper's free network (§III-B).
//   - HInDynamics maps to the master computing for H seconds per
//     operation (AppConfig.MasterOverhead).
//   - Speeds map to worker host speeds with ReferenceSpeed 1, so a
//     chunk of w workload-seconds executes in w/speed seconds, as in the
//     event-driven backends.
//
// StartTimes and Observe are not representable in the MSG protocol layer
// and are rejected.
type msgBackend struct{}

func init() { Register(msgBackend{}) }

func (msgBackend) Name() string { return "msg" }

func (b msgBackend) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	return runOnce(ctx, b, spec)
}

// msgRunner amortizes the per-point setup of the verification-grade
// backend: the spec is validated once, and the scheduler and rand48
// state are reused across runs. The star platform and its worker host
// names (platform data is immutable during simulation) are built once
// and kept across Rebinds to points with the same P, speeds and link
// latency, as the curves of one PE count in a Tzen sweep are. A fresh
// msg.Engine still comes up per run, since its clock starts at 0. The
// protocol runs as kernel callbacks, with no process and no mailbox, so
// each run allocates the engine and its event heap, the result slices,
// and per worker its protocol state and the callbacks bound to it.
// Nothing is allocated per message.
type msgRunner struct {
	app msg.AppConfig
	pl  *platform.Platform
	rng rng.Rand48
	out RunResult

	// The point pl and app.WorkerHosts were built for.
	p      int
	lat    float64
	speeds []float64 // nil for a homogeneous point
}

// NewRunner implements Backend.
func (msgBackend) NewRunner(spec RunSpec) (Runner, error) {
	r := &msgRunner{}
	if err := r.Rebind(spec); err != nil {
		return nil, err
	}
	return r, nil
}

// Rebind implements Runner: validate the new point and rebuild its
// scheduler, keeping the runner's rand48 state slot. The star platform
// is rebuilt only when the point's P, speeds or link latency differ
// from the one it was built for.
func (r *msgRunner) Rebind(spec RunSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.StartTimes != nil {
		return fmt.Errorf("engine: backend msg does not support per-PE start times")
	}
	if spec.Observe != nil {
		return fmt.Errorf("engine: backend msg does not support chunk observation; use sim or des")
	}
	s, err := spec.Scheduler()
	if err != nil {
		return err
	}

	bw, lat := platform.FreeNetwork()
	if spec.PerMessageCost > 0 {
		lat = spec.PerMessageCost / 4
	}
	workers := r.app.WorkerHosts
	if r.pl == nil || spec.P != r.p || lat != r.lat || !slices.Equal(spec.Speeds, r.speeds) {
		var pl *platform.Platform
		if spec.Speeds != nil {
			pl, err = platform.Heterogeneous("pe", spec.Speeds, bw, lat)
		} else {
			pl, err = platform.Cluster("pe", spec.P, 1.0, bw, lat)
		}
		if err != nil {
			return err
		}
		workers = make([]string, spec.P)
		for i := range workers {
			workers[i] = fmt.Sprintf("pe-%d", i+1)
		}
		r.pl, r.p, r.lat, r.speeds = pl, spec.P, lat, slices.Clone(spec.Speeds)
	}
	var masterOverhead float64
	if spec.HInDynamics {
		masterOverhead = spec.H
	}
	r.app = msg.AppConfig{
		MasterHost:     "pe-0",
		WorkerHosts:    workers,
		Sched:          s,
		Work:           spec.Work,
		RNG:            &r.rng,
		ReferenceSpeed: 1,
		MasterOverhead: masterOverhead,
	}
	return nil
}

func (r *msgRunner) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.app.Sched.Reset()
	r.rng.SetState(spec.RNGState)
	res, err := msg.RunApp(msg.NewEngine(r.pl), r.app)
	if err != nil {
		return nil, err
	}
	var commWait float64
	for _, c := range res.CommWait {
		commWait += c
	}
	r.out = RunResult{
		Makespan:       res.Makespan,
		Compute:        res.Compute,
		SchedOps:       res.SchedOps,
		OpsPerWorker:   res.OpsPerWorker,
		TasksPerWorker: res.TasksPerWorker,
		CommTime:       commWait,
	}
	return &r.out, nil
}
