package engine

import (
	"context"
	"fmt"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/sched"
)

// desBackend runs the master–worker loop directly on the process-oriented
// discrete-event kernel (internal/des): one process per worker, the
// master folded into the (zero-cost) chunk calculation at request time.
// It models exactly the dynamics of the sim backend — free communication
// by default, optional master serialization and per-message cost — but
// exercises the kernel's cooperative scheduling instead of sim's event
// tree, cross-validating the two event orderings.
type desBackend struct{}

func init() { Register(desBackend{}) }

func (desBackend) Name() string { return "des" }

func (b desBackend) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	return runOnce(ctx, b, spec)
}

// desRunner amortizes per-run setup across replications of one point:
// the spec is validated once, worker names are formatted once, the
// scheduler is Reset instead of rebuilt, and the result slices and
// rand48 state are reused. The kernel itself is rebuilt per run — its
// processes are coroutines that end with the run — so each run
// allocates the simulator, one process (coroutine, its iter.Pull
// state and the body closure) per worker and the event heap's backing
// array. Nothing is allocated per scheduling operation: the kernel
// schedules events as plain values.
type desRunner struct {
	s     sched.Scheduler
	names []string
	rng   rng.Rand48
	out   RunResult
}

// NewRunner implements Backend.
func (desBackend) NewRunner(spec RunSpec) (Runner, error) {
	r := &desRunner{}
	if err := r.Rebind(spec); err != nil {
		return nil, err
	}
	return r, nil
}

// Rebind implements Runner: validate the new point and rebuild the
// scheduler, growing the pooled name and result buffers only when the
// new point has more workers than any point this runner served before.
func (r *desRunner) Rebind(spec RunSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	s, err := spec.Scheduler()
	if err != nil {
		return err
	}
	r.s = s
	if cap(r.names) < spec.P {
		// Fill the whole backing array so later re-slicing to a larger P
		// within capacity always exposes initialized names.
		r.names = make([]string, spec.P)
		for w := range r.names {
			r.names[w] = fmt.Sprintf("worker-%d", w)
		}
		r.out.Compute = make([]float64, spec.P)
		r.out.OpsPerWorker = make([]int64, spec.P)
		r.out.TasksPerWorker = make([]int64, spec.P)
	} else {
		r.names = r.names[:spec.P]
		r.out.Compute = r.out.Compute[:spec.P]
		r.out.OpsPerWorker = r.out.OpsPerWorker[:spec.P]
		r.out.TasksPerWorker = r.out.TasksPerWorker[:spec.P]
	}
	return nil
}

func (r *desRunner) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := r.s
	s.Reset()
	r.rng.SetState(spec.RNGState)
	res := &r.out
	res.Makespan = 0
	res.SchedOps = 0
	res.CommTime = 0
	res.MasterBusy = 0
	for w := 0; w < spec.P; w++ {
		res.Compute[w] = 0
		res.OpsPerWorker[w] = 0
		res.TasksPerWorker[w] = 0
	}

	// The kernel runs exactly one process at a time, so the shared
	// scheduler, task counter and result require no locking.
	k := des.New()
	var nextTask int64
	var masterFree float64
	for w := 0; w < spec.P; w++ {
		w := w
		start := 0.0
		if spec.StartTimes != nil {
			start = spec.StartTimes[w]
		}
		speed := 1.0
		if spec.Speeds != nil {
			speed = spec.Speeds[w]
		}
		k.SpawnAt(start, r.names[w], func(p *des.Process) {
			for {
				t := p.Now()
				serviceEnd := t
				if spec.HInDynamics {
					st := t
					if masterFree > st {
						st = masterFree
					}
					serviceEnd = st + spec.H
					masterFree = serviceEnd
					res.MasterBusy += spec.H
				}
				chunk := s.Next(w, t)
				if chunk == 0 {
					return
				}
				chunkStart := nextTask
				exec := spec.Work.ChunkTime(nextTask, chunk, &r.rng)
				nextTask += chunk
				exec /= speed
				done := serviceEnd + spec.PerMessageCost + exec
				res.CommTime += spec.PerMessageCost
				res.Compute[w] += exec
				res.OpsPerWorker[w]++
				res.TasksPerWorker[w] += chunk
				res.SchedOps++
				s.Report(w, chunk, exec, done)
				if spec.Observe != nil {
					spec.Observe(w, chunkStart, chunk, serviceEnd, done)
				}
				if done > res.Makespan {
					res.Makespan = done
				}
				p.Hold(done - t)
			}
		})
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("engine: des backend: %w", err)
	}
	return res, nil
}
