package msg

import (
	"fmt"
	"sort"

	"repro/internal/sched"
	"repro/internal/workload"
)

// This file extends the Figure 1 master–worker protocol with failure
// detection and chunk reassignment — the resilience property of DLS
// techniques the paper's earlier-work context investigated ([3]:
// "Investigating the resilience of dynamic loop scheduling in
// heterogeneous computing systems"). A worker that crashes mid-chunk
// simply goes silent; the master notices the missed deadline through a
// receive watchdog and requeues the lost task range for the surviving
// workers.
//
// Limitations (documented): reassigned chunks of *random* workloads are
// re-drawn (a different but identically distributed sample), so the
// resilient app requires deterministic workloads for bit-reproducible
// task times; a slow-but-alive worker that misses its deadline leads to
// duplicated execution, which the result reports.

// Failure describes one injected crash: the worker dies while executing
// its AfterChunks-th chunk (1-based).
type Failure struct {
	Worker      int
	AfterChunks int
}

// ResilientConfig extends AppConfig with the failures to inject.
type ResilientConfig struct {
	AppConfig

	// Failures to inject.
	Failures []Failure
}

// deadlineFactor scales a chunk's expected execution time into the
// master's per-assignment deadline: a chunk is presumed lost when it
// takes deadlineFactor times its expectation plus one watchdog period.
const deadlineFactor = 3

// ResilientResult reports a fault-tolerant execution.
type ResilientResult struct {
	Makespan        float64
	TasksCompleted  int64
	FailuresSeen    int   // failures detected by the master
	TasksReassigned int64 // tasks requeued from dead workers
	TasksDuplicated int64 // tasks executed twice (false-positive detection)
	DeadWorkers     []int // workers the master declared dead
	Compute         []float64
	TasksPerWorker  []int64
}

// assignment tracks one in-flight chunk at the master; a zero count
// means the worker has none.
type assignment struct {
	start    int64
	count    int64
	deadline float64
}

// taskRange is a requeued span of tasks.
type taskRange struct {
	start, count int64
}

// RunResilientApp executes the master–worker protocol with failure
// injection and recovery.
func RunResilientApp(e *Engine, cfg ResilientConfig) (*ResilientResult, error) {
	p := len(cfg.WorkerHosts)
	if p == 0 {
		return nil, fmt.Errorf("msg: no worker hosts")
	}
	if cfg.Sched == nil || cfg.Work == nil {
		return nil, fmt.Errorf("msg: ResilientConfig requires Sched and Work")
	}
	if !cfg.Work.Deterministic() {
		return nil, fmt.Errorf("msg: resilient app requires a deterministic workload (got %q)", cfg.Work.Name())
	}
	for _, f := range cfg.Failures {
		if f.Worker < 0 || f.Worker >= p {
			return nil, fmt.Errorf("msg: failure worker %d out of range [0,%d)", f.Worker, p)
		}
		if f.AfterChunks < 1 {
			return nil, fmt.Errorf("msg: failure AfterChunks must be >= 1, got %d", f.AfterChunks)
		}
	}
	if len(cfg.Failures) >= p {
		return nil, fmt.Errorf("msg: cannot kill all %d workers", p)
	}
	// The watchdog is the master's receive timeout, so it re-checks
	// deadlines at least this often: one mean task time, or 1 s when
	// the mean is 0.
	watchdog := cfg.Work.Mean()
	if watchdog <= 0 {
		watchdog = 1
	}
	refSpeed := cfg.ReferenceSpeed
	if refSpeed <= 0 {
		mh, err := e.Platform().Host(cfg.MasterHost)
		if err != nil {
			return nil, err
		}
		refSpeed = mh.Speed
	}

	failAt := map[int]int{}
	for _, f := range cfg.Failures {
		failAt[f.Worker] = f.AfterChunks
	}

	res := &ResilientResult{
		Compute:        make([]float64, p),
		TasksPerWorker: make([]int64, p),
	}

	master, links, err := declareMailboxes(e, cfg.AppConfig)
	if err != nil {
		return nil, err
	}

	var total int64 = cfg.Sched.Remaining()
	var nextTask int64
	var appErr error
	fail := func(err error) {
		if appErr == nil {
			appErr = err
		}
	}

	err = e.Spawn(cfg.MasterHost, "master", func(mp *Process) {
		// In-flight chunks are indexed by worker and scanned in worker
		// order, so when several deadlines expire in one check the
		// requeue order never depends on map iteration order.
		inflight := make([]assignment, p)
		busy := 0 // workers with a chunk in flight
		dead := map[int]bool{}
		var requeue []taskRange
		var idle []int // workers waiting for work while none is available
		var completed int64
		finalized := 0

		// nextRange returns the next span to assign: requeued work
		// first, then fresh tasks from the chunk calculator.
		nextRange := func(w int, now float64) (taskRange, bool) {
			if len(requeue) > 0 {
				r := requeue[0]
				requeue = requeue[1:]
				return r, true
			}
			chunk := cfg.Sched.Next(w, now)
			if chunk == 0 {
				return taskRange{}, false
			}
			r := taskRange{start: nextTask, count: chunk}
			nextTask += chunk
			return r, true
		}

		// answer sends worker w its reusable reply carrying rep.
		answer := func(w int, name string, rep reply) {
			l := &links[w]
			l.rep = rep
			l.repTask.Name = name
			mp.send(l.mb, &l.repTask, l.ctrlTime)
		}

		dispatch := func(w int, r taskRange) {
			seconds := cfg.Work.ChunkTime(r.start, r.count, cfg.RNG)
			if inflight[w].count == 0 {
				busy++
			}
			inflight[w] = assignment{
				start:    r.start,
				count:    r.count,
				deadline: mp.Now() + seconds*deadlineFactor + watchdog,
			}
			answer(w, "assignment", reply{chunk: r.count, flops: seconds * refSpeed})
		}

		finalize := func(w int) {
			answer(w, "finalize", reply{chunk: 0})
			finalized++
		}

		checkDeadlines := func(now float64) {
			for w, a := range inflight {
				if a.count == 0 || dead[w] || a.deadline > now {
					continue
				}
				// Worker w is presumed dead: requeue its chunk.
				dead[w] = true
				inflight[w] = assignment{}
				busy--
				requeue = append(requeue, taskRange{start: a.start, count: a.count})
				res.FailuresSeen++
				res.TasksReassigned += a.count
				res.DeadWorkers = append(res.DeadWorkers, w)
				// Serve idle workers now that work exists.
				for len(idle) > 0 && len(requeue) > 0 {
					iw := idle[0]
					idle = idle[1:]
					r := requeue[0]
					requeue = requeue[1:]
					dispatch(iw, r)
				}
			}
		}

		aliveWorkers := func() int {
			return p - len(dead) - finalized
		}

		for completed < total && aliveWorkers() > 0 {
			t, ok := mp.recvTimeout(master, watchdog)
			now := mp.Now()
			if !ok {
				checkDeadlines(now)
				continue
			}
			r, okReq := t.Payload.(*request)
			if !okReq {
				fail(fmt.Errorf("msg: master received %T, want *request", t.Payload))
				return
			}
			req := *r
			w := req.worker
			if req.lastChunk > 0 {
				if a := inflight[w]; a.count > 0 {
					completed += a.count
					inflight[w] = assignment{}
					busy--
					cfg.Sched.Report(w, req.lastChunk, req.lastElapsed, now)
				} else {
					// The master had already written this worker off and
					// requeued its chunk: the work is (being) duplicated.
					res.TasksDuplicated += req.lastChunk
					delete(dead, w)
					res.FailuresSeen--
				}
			}
			checkDeadlines(now)
			if completed >= total {
				finalize(w)
				break
			}
			if r, have := nextRange(w, now); have {
				dispatch(w, r)
			} else if busy > 0 {
				// Work may still come back as requeues; park the worker.
				idle = append(idle, w)
			} else {
				finalize(w)
			}
		}
		// Finalize everyone still parked or yet to report in.
		for _, w := range idle {
			finalize(w)
		}
		res.TasksCompleted = completed
		if t := mp.Now(); t > res.Makespan {
			res.Makespan = t
		}
		sort.Ints(res.DeadWorkers)
	})
	if err != nil {
		return nil, err
	}

	for w := range cfg.WorkerHosts {
		l := &links[w]
		err := e.Spawn(cfg.WorkerHosts[w], l.mb.name, func(wp *Process) {
			chunksDone := 0
			for {
				wp.send(master, &l.reqTask, l.ctrlTime)
				t := wp.recv(l.mb)
				r, okRep := t.Payload.(*reply)
				if !okRep {
					fail(fmt.Errorf("msg: worker %d received %T, want *reply", w, t.Payload))
					return
				}
				rep := *r
				if rep.chunk == 0 {
					if t := wp.Now(); t > res.Makespan {
						res.Makespan = t
					}
					return
				}
				chunksDone++
				if limit, dies := failAt[w]; dies && chunksDone >= limit {
					// Crash mid-chunk: consume half the execution time,
					// then go silent forever.
					wp.Execute(rep.flops / 2)
					return
				}
				start := wp.Now()
				wp.Execute(rep.flops)
				l.req.lastElapsed = wp.Now() - start
				l.req.lastChunk = rep.chunk
				res.Compute[w] += l.req.lastElapsed
				res.TasksPerWorker[w] += rep.chunk
			}
		})
		if err != nil {
			return nil, err
		}
	}

	if err := e.Run(); err != nil {
		return nil, err
	}
	if appErr != nil {
		return nil, appErr
	}
	return res, nil
}

// buildResilientSched is a convenience used by tests: a scheduler plus
// workload matching the resilient app's requirements.
func buildResilientSched(tech string, n int64, p int, taskTime float64) (sched.Scheduler, workload.Workload, error) {
	s, err := sched.New(tech, sched.Params{N: n, P: p, Mu: taskTime, Sigma: 0})
	if err != nil {
		return nil, nil, err
	}
	return s, workload.NewConstant(taskTime), nil
}
