// Package sim implements the chunk-granularity master–worker simulator
// that replicates the simulator of the BOLD publication's authors, as the
// paper itself did (§III-B):
//
//	"Therefore, the implemented simulator of the authors of [14] was
//	 replicated. Their simulator did not measure the network traffic
//	 needed for every scheduling operation. It was assumed that every
//	 scheduling operation takes a fixed amount of time (parameter h)."
//
// The simulator advances a virtual clock over scheduling events only:
// a worker becomes available, the master hands it a chunk, the worker is
// busy for the chunk's execution time, repeat. Each worker has one
// pending request at a time, kept in a loser tree ordered by (time,
// worker id) (queue.go). Communication is free by default (the paper
// models this in SimGrid by setting bandwidth very high and latency very
// low) and the scheduling overhead h is accounted per operation in the
// wasted-time metric (package metrics). Two ablation switches depart
// from the paper's setup on request:
//
//   - HInDynamics charges h inside the master loop, serializing
//     concurrent requests the way a real master would (ablation A1 in
//     bench_test.go).
//   - PerMessageCost adds a fixed network round-trip per scheduling
//     operation (ablation A3 in bench_test.go), which is how the
//     TSS-publication experiments are driven without the full MSG stack.
//
// The heavyweight alternative — the process-oriented SimGrid-MSG model
// with explicit messages — lives in internal/msg and is cross-validated
// against this package by integration tests.
package sim

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config describes one simulated loop execution.
type Config struct {
	P     int               // number of worker PEs
	Sched sched.Scheduler   // chunk calculator (owned by the master)
	Work  workload.Workload // per-task execution times
	RNG   *rng.Rand48       // randomness source; may be nil for deterministic workloads

	// RunInto checks both with CheckPEVectors before the run starts.
	Speeds     []float64 // relative PE speeds; nil means all 1.0
	StartTimes []float64 // per-PE start times (uneven starts); nil means all 0

	// H is the scheduling overhead per operation. It is consumed by the
	// dynamics only when HInDynamics is set; in the paper's faithful mode
	// the caller adds h per operation post hoc via metrics.AverageWasted.
	H float64
	// HInDynamics charges h inside the master's service loop, serializing
	// concurrent requests. Every request is serviced, including the final
	// "no work left" request each worker makes, so the master is busy for
	// (ops + p)·h in total.
	HInDynamics bool

	PerMessageCost float64 // fixed request+reply network cost per scheduling operation

	// Observe, when non-nil, is called once per scheduling operation with
	// the worker, the assigned task range [start, start+count), the
	// assignment time and the completion time. internal/trace.Recorder
	// has exactly this shape.
	Observe func(worker int, start, count int64, assigned, done float64)
}

// Result reports one simulated execution.
type Result struct {
	Makespan float64   // completion time of the last task
	Compute  []float64 // per-worker total computation time
	Finish   []float64 // per-worker completion time of its last chunk

	SchedOps       int64   // total scheduling operations (chunks)
	OpsPerWorker   []int64 // scheduling operations per worker
	TasksPerWorker []int64 // tasks executed per worker

	CommTime   float64 // total time spent in per-message network costs
	MasterBusy float64 // total master service time (HInDynamics mode)
}

// Arena holds the reusable buffers of a simulation run: the result
// slices and the event queue's tree. One arena serves many
// sequential runs from a single goroutine — RunInto recycles its memory,
// so steady-state runs allocate nothing. The zero value is ready to use.
type Arena struct {
	res   Result
	queue eventQueue
}

// prepare sizes the arena for p workers and returns the zeroed result.
func (a *Arena) prepare(p int) *Result {
	if cap(a.res.Compute) < p {
		a.res.Compute = make([]float64, p)
		a.res.Finish = make([]float64, p)
		a.res.OpsPerWorker = make([]int64, p)
		a.res.TasksPerWorker = make([]int64, p)
	}
	a.res.Compute = a.res.Compute[:p]
	a.res.Finish = a.res.Finish[:p]
	a.res.OpsPerWorker = a.res.OpsPerWorker[:p]
	a.res.TasksPerWorker = a.res.TasksPerWorker[:p]
	for i := 0; i < p; i++ {
		a.res.Compute[i] = 0
		a.res.Finish[i] = 0
		a.res.OpsPerWorker[i] = 0
		a.res.TasksPerWorker[i] = 0
	}
	a.res.Makespan = 0
	a.res.SchedOps = 0
	a.res.CommTime = 0
	a.res.MasterBusy = 0
	return &a.res
}

// Run executes the master–worker loop to completion and returns the
// timing results. Each call allocates a fresh Result; callers executing
// many runs should reuse an Arena via RunInto instead.
func Run(cfg Config) (*Result, error) {
	res, err := RunInto(cfg, new(Arena))
	if err != nil {
		return nil, err
	}
	// Detach the result from the throwaway arena so it has ordinary
	// value semantics for the caller.
	out := *res
	return &out, nil
}

// RunInto executes the master–worker loop to completion using the
// arena's buffers. The returned Result (and its slices) aliases the
// arena and is valid only until the arena's next RunInto call; callers
// that retain results across runs must copy them. Reusing one arena
// across runs makes the steady-state hot path allocation-free.
func RunInto(cfg Config, a *Arena) (*Result, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("sim: P must be positive, got %d", cfg.P)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("sim: Config.Sched is nil")
	}
	if cfg.Work == nil {
		return nil, fmt.Errorf("sim: Config.Work is nil")
	}
	if err := CheckPEVectors(cfg.Speeds, cfg.StartTimes, cfg.P); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if !cfg.Work.Deterministic() && cfg.RNG == nil {
		return nil, fmt.Errorf("sim: random workload %q requires Config.RNG", cfg.Work.Name())
	}

	res := a.prepare(cfg.P)
	q := &a.queue
	q.reset(cfg.P, cfg.StartTimes)

	if fastLoopEligible(cfg) {
		runLoopFast(cfg, res, q)
	} else {
		runLoopGeneric(cfg, res, q)
	}
	return res, nil
}

// CheckPEVectors checks per-PE speeds and start times against p workers:
// one entry per worker, every speed finite and positive, every start
// time finite. A nil slice means the default for every worker. A NaN
// would otherwise pass every comparison the simulators make and
// silently corrupt the run, and an infinite speed would hand its worker
// nearly every chunk at zero cost. RunInto and the engine's spec
// validation share it.
func CheckPEVectors(speeds, starts []float64, p int) error {
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

// fastLoopEligible reports whether the configuration exercises none of
// the optional dynamics, so the specialized inner loop applies. Uneven
// StartTimes are fine: they only shape the initial events, not the loop.
func fastLoopEligible(cfg Config) bool {
	return cfg.Speeds == nil && cfg.Observe == nil &&
		!cfg.HInDynamics && cfg.PerMessageCost == 0
}

// runLoopFast is the inner loop specialized for the paper-faithful
// configuration (no per-PE speeds, no observer, h outside the dynamics,
// free communication). With every optional feature known absent, the
// per-operation work collapses to: take the queue's winner, ask the
// scheduler, charge the chunk, give the winner its next time — no speed
// division, no master serialization, no comm-cost accounting and none
// of the three per-op branches the generic loop re-tests millions of
// times per campaign. The golden tests prove it bit-identical to the
// generic loop on the shared configuration subspace.
func runLoopFast(cfg Config, res *Result, q *eventQueue) {
	var nextTask int64 // global index of the next unassigned task

	for {
		w, t, ok := q.top()
		if !ok {
			return
		}

		chunk := cfg.Sched.Next(w, t)
		if chunk == 0 {
			// Finalization: the worker leaves the computation.
			if t > res.Finish[w] {
				res.Finish[w] = t
			}
			q.leave(w)
			continue
		}

		exec := cfg.Work.ChunkTime(nextTask, chunk, cfg.RNG)
		nextTask += chunk

		done := t + exec
		res.Compute[w] += exec
		res.Finish[w] = done
		res.OpsPerWorker[w]++
		res.TasksPerWorker[w] += chunk
		res.SchedOps++
		cfg.Sched.Report(w, chunk, exec, done)
		if done > res.Makespan {
			res.Makespan = done
		}
		q.next(w, done)
	}
}

// runLoopGeneric is the fully featured inner loop, handling every
// optional dynamic. RunInto has checked the speeds, so it cannot fail.
func runLoopGeneric(cfg Config, res *Result, q *eventQueue) {
	var nextTask int64 // global index of the next unassigned task
	var masterFree float64

	for {
		w, t, ok := q.top()
		if !ok {
			return
		}

		serviceEnd := t
		if cfg.HInDynamics {
			start := t
			if masterFree > start {
				start = masterFree
			}
			serviceEnd = start + cfg.H
			masterFree = serviceEnd
			res.MasterBusy += cfg.H
		}

		chunk := cfg.Sched.Next(w, t)
		if chunk == 0 {
			// Finalization: the worker leaves the computation.
			if t > res.Finish[w] {
				res.Finish[w] = t
			}
			q.leave(w)
			continue
		}

		chunkStart := nextTask
		exec := cfg.Work.ChunkTime(nextTask, chunk, cfg.RNG)
		nextTask += chunk
		if cfg.Speeds != nil {
			// Without Speeds every PE runs at 1.0, and dividing by 1.0
			// is exact, so skipping the division changes no bit.
			exec /= cfg.Speeds[w]
		}

		done := serviceEnd + cfg.PerMessageCost + exec
		res.CommTime += cfg.PerMessageCost
		res.Compute[w] += exec
		res.Finish[w] = done
		res.OpsPerWorker[w]++
		res.TasksPerWorker[w] += chunk
		res.SchedOps++
		cfg.Sched.Report(w, chunk, exec, done)
		if cfg.Observe != nil {
			cfg.Observe(w, chunkStart, chunk, serviceEnd, done)
		}
		if done > res.Makespan {
			res.Makespan = done
		}
		q.next(w, done)
	}
}
