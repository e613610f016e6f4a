package msg

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// This file implements the paper's Figure 1 on the MSG layer: a master
// process owning the DLS chunk calculator and one worker process per PE.
//
//	"When starting the simulation, all workers are in idle state, and
//	 send work request messages to the master. When the master receives
//	 a work request message, it computes the chunk size for the chosen
//	 DLS technique and sends the computed number of tasks to the
//	 requesting worker. The worker simulates executing the tasks, and
//	 when it finishes, it sends again a work request message to the
//	 master. On completion of all tasks, the master sends finalization
//	 messages to the workers, and the simulation ends."
//
// As in the paper, application data is assumed replicated: messages carry
// only control information (§II), ctrlBytes = 64 B each.

// AppConfig describes one master–worker DLS execution.
type AppConfig struct {
	MasterHost  string
	WorkerHosts []string

	Sched sched.Scheduler
	Work  workload.Workload
	RNG   *rng.Rand48 // required for random workloads

	// ReferenceSpeed converts workload seconds into flops: a chunk whose
	// workload time is t seconds costs t·ReferenceSpeed flops, so it runs
	// in t seconds on a host of that speed. 0 selects the master host's
	// speed (exact on homogeneous platforms).
	ReferenceSpeed float64

	// MasterOverhead, when positive, makes the master compute for this
	// many seconds per scheduling operation (h inside the dynamics,
	// ablation A1). The paper's faithful mode leaves this at 0 and adds
	// h per operation post hoc in the metrics.
	MasterOverhead float64
}

// AppResult reports one master–worker execution.
type AppResult struct {
	Makespan       float64   // virtual time when the last worker finalized
	Compute        []float64 // per-worker total computing time
	CommWait       []float64 // per-worker time spent in Send + blocked in Recv
	SchedOps       int64
	OpsPerWorker   []int64
	TasksPerWorker []int64
}

// request is the payload of a work-request message.
type request struct {
	worker      int
	lastChunk   int64   // 0 on the first request
	lastElapsed float64 // execution time of the previous chunk
}

// reply is the payload of a work-assignment message.
type reply struct {
	chunk int64   // 0 means finalize
	flops float64 // total computation of the chunk
}

// ctrlBytes is the size of every control message — a work request,
// an assignment or a finalization — modelling the small messages of the
// paper's master–worker protocol.
const ctrlBytes = 64

const masterMailbox = "master"

// workerLink is the per-worker protocol state that outlives one
// message: the worker's mailbox, declared once per run (its name is
// also the worker process's), the transfer time of a control message
// between worker and master, either way, and the two messages the
// worker and the master reuse for every exchange. Reuse is safe
// because a worker never has more than one message in flight in each
// direction: it sends a request and waits for the reply, and each side
// copies a payload out as soon as it receives it.
type workerLink struct {
	mb       *Mailbox
	ctrlTime float64 // ctrlBytes over the worker–master route
	req      request
	rep      reply
	reqTask  Task
	repTask  Task
}

// declareMailboxes declares the master's mailbox and one per worker,
// and returns the master's mailbox and the workers' links, so the
// protocol loops send and receive without a lookup per message.
func declareMailboxes(e *Engine, cfg AppConfig) (*Mailbox, []workerLink, error) {
	master, err := e.declare(masterMailbox, cfg.MasterHost)
	if err != nil {
		return nil, nil, err
	}
	links := make([]workerLink, len(cfg.WorkerHosts))
	for w := range links {
		l := &links[w]
		if l.mb, err = e.declare(fmt.Sprintf("worker-%d", w), cfg.WorkerHosts[w]); err != nil {
			return nil, nil, err
		}
		route, err := e.plat.Route(cfg.WorkerHosts[w], cfg.MasterHost)
		if err != nil {
			return nil, nil, fmt.Errorf("msg: send to %q: %w", masterMailbox, err)
		}
		l.ctrlTime = route.TransferTime(ctrlBytes)
		l.req.worker = w
		l.reqTask = Task{Name: "work-request", Bytes: ctrlBytes, Payload: &l.req}
		l.repTask = Task{Name: "assignment", Bytes: ctrlBytes, Payload: &l.rep}
	}
	return master, links, nil
}

// RunApp executes the Figure 1 protocol and returns its timing results.
// The engine must be fresh (time 0) and is run to completion.
func RunApp(e *Engine, cfg AppConfig) (*AppResult, error) {
	p := len(cfg.WorkerHosts)
	if p == 0 {
		return nil, fmt.Errorf("msg: no worker hosts")
	}
	if cfg.Sched == nil || cfg.Work == nil {
		return nil, fmt.Errorf("msg: AppConfig requires Sched and Work")
	}
	if !cfg.Work.Deterministic() && cfg.RNG == nil {
		return nil, fmt.Errorf("msg: random workload %q requires RNG", cfg.Work.Name())
	}
	refSpeed := cfg.ReferenceSpeed
	if refSpeed <= 0 {
		mh, err := e.Platform().Host(cfg.MasterHost)
		if err != nil {
			return nil, err
		}
		refSpeed = mh.Speed
	}

	res := &AppResult{
		Compute:        make([]float64, p),
		CommWait:       make([]float64, p),
		OpsPerWorker:   make([]int64, p),
		TasksPerWorker: make([]int64, p),
	}

	master, links, err := declareMailboxes(e, cfg)
	if err != nil {
		return nil, err
	}

	var nextTask int64
	var appErr error
	fail := func(err error) {
		if appErr == nil {
			appErr = err
		}
	}

	// Master: Figure 1 left side.
	err = e.Spawn(cfg.MasterHost, "master", func(mp *Process) {
		finalized := 0
		for finalized < p {
			t := mp.recv(master)
			r, ok := t.Payload.(*request)
			if !ok {
				fail(fmt.Errorf("msg: master received %T, want *request", t.Payload))
				return
			}
			req := *r
			if req.lastChunk > 0 {
				cfg.Sched.Report(req.worker, req.lastChunk, req.lastElapsed, mp.Now())
			}
			if cfg.MasterOverhead > 0 {
				mp.Sleep(cfg.MasterOverhead)
			}
			chunk := cfg.Sched.Next(req.worker, mp.Now())
			l := &links[req.worker]
			l.rep = reply{chunk: chunk}
			if chunk > 0 {
				seconds := cfg.Work.ChunkTime(nextTask, chunk, cfg.RNG)
				nextTask += chunk
				l.rep.flops = seconds * refSpeed
				res.SchedOps++
				res.OpsPerWorker[req.worker]++
				res.TasksPerWorker[req.worker] += chunk
			} else {
				finalized++
			}
			mp.send(l.mb, &l.repTask, l.ctrlTime)
		}
		if t := mp.Now(); t > res.Makespan {
			res.Makespan = t
		}
	})
	if err != nil {
		return nil, err
	}

	// Workers: Figure 1 right side.
	for w := range cfg.WorkerHosts {
		l := &links[w]
		err := e.Spawn(cfg.WorkerHosts[w], l.mb.name, func(wp *Process) {
			for {
				sendStart := wp.Now()
				wp.send(master, &l.reqTask, l.ctrlTime)
				t := wp.recv(l.mb)
				res.CommWait[w] += wp.Now() - sendStart
				r, ok := t.Payload.(*reply)
				if !ok {
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
				start := wp.Now()
				wp.Execute(rep.flops)
				l.req.lastElapsed = wp.Now() - start
				l.req.lastChunk = rep.chunk
				res.Compute[w] += l.req.lastElapsed
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
