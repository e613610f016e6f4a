package msg

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// This file implements the paper's Figure 1 on the MSG layer: a master
// owning the DLS chunk calculator and one worker per PE.
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

// workerLink is the per-worker state that outlives one message when
// the protocol runs as MSG processes, as the resilient master does:
// the worker's mailbox, declared once per run (its name is also the
// worker process's), the transfer time of a control message between
// worker and master, either way, and the two messages the worker and
// the master reuse for every exchange. Reuse is safe
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
//
// The master and the workers are chains of kernel callbacks, not MSG
// processes. Each step ends where a process would block, by scheduling
// the step that resumes it:
//
//   - a computation, the master's overhead and a message's transfer
//     schedule the next step after their duration, as a process's
//     Execute, Sleep and Send pushed its activation;
//   - a message that finds its receiver waiting schedules the
//     receiver's next step at once, as Wake pushed its activation;
//   - a receive that finds a message queued carries on in the same
//     step, as a process's Recv did without blocking.
//
// The master starts first, then workers 0…p−1, as their processes were
// spawned. The kernel numbers callbacks and activations in one
// sequence, so every step runs at the time and in the (time, sequence)
// order of the process form and every result bit matches it; the tests
// check that against the process form. A step costs one callback
// instead of two coroutine switches.
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
	mh, err := e.plat.Host(cfg.MasterHost)
	if err != nil {
		return nil, fmt.Errorf("msg: master: %w", err)
	}
	a := &app{
		sim:      e.sim,
		cfg:      cfg,
		refSpeed: cfg.ReferenceSpeed,
		queue:    make([]*appWorker, 0, p),
		workers:  make([]appWorker, p),
		res: &AppResult{
			Compute:        make([]float64, p),
			CommWait:       make([]float64, p),
			OpsPerWorker:   make([]int64, p),
			TasksPerWorker: make([]int64, p),
		},
	}
	if a.refSpeed <= 0 {
		a.refSpeed = mh.Speed
	}
	for w := range a.workers {
		h, err := e.plat.Host(cfg.WorkerHosts[w])
		if err != nil {
			return nil, fmt.Errorf("msg: worker %d: %w", w, err)
		}
		route, err := e.plat.Route(h.Name, mh.Name)
		if err != nil {
			return nil, fmt.Errorf("msg: worker %d: %w", w, err)
		}
		wk := &a.workers[w]
		*wk = appWorker{app: a, index: w, speed: h.Speed, ctrlTime: route.TransferTime(ctrlBytes)}
		wk.step.requested, wk.step.replied, wk.step.executed = wk.requested, wk.replied, wk.executed
	}
	a.step.serve, a.step.assign, a.step.sent = a.serve, a.assign, a.sent

	e.sim.Schedule(0, a.receive)
	for w := range a.workers {
		e.sim.Schedule(0, a.workers[w].request)
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	if a.finished < p {
		return nil, fmt.Errorf("msg: run ended at t=%v with %d of %d workers finalized", e.Now(), a.finished, p)
	}
	return a.res, nil
}

// app is one RunApp execution: the master's state between its steps,
// the workers and the result.
type app struct {
	sim      *des.Simulator
	cfg      AppConfig
	refSpeed float64
	res      *AppResult
	workers  []appWorker

	// queue holds the workers whose requests have arrived and wait for
	// the master, oldest first: the master's mailbox. It never holds
	// more than p, since a worker waits for its reply before it asks
	// again.
	queue     []*appWorker
	waiting   bool       // the master is blocked receiving on an empty queue
	serving   *appWorker // the worker whose request the master handles
	nextTask  int64
	finalized int // workers the master sent a finalization
	finished  int // workers that received one; p once the run is complete

	// step holds the master's scheduled steps bound once per run, so
	// scheduling one allocates nothing.
	step struct{ serve, assign, sent func() }
}

// appWorker is one worker's state between its steps.
type appWorker struct {
	app      *app
	index    int
	speed    float64 // host speed, flops/s
	ctrlTime float64 // ctrlBytes over the worker–master route, either way

	sendStart   float64 // when the pending request was sent
	start       float64 // when the current chunk started executing
	lastChunk   int64   // 0 before the first chunk
	lastElapsed float64
	rep         reply // the master's answer, read when it arrives

	// step holds the worker's scheduled steps bound once per run.
	step struct{ requested, replied, executed func() }
}

// receive is the master's receive: it serves the oldest queued request,
// or waits for the next one when none is queued.
func (a *app) receive() {
	if len(a.queue) == 0 {
		a.waiting = true
		return
	}
	a.serve()
}

// serve takes the oldest request, reports the requester's last chunk
// to the chunk calculator and charges the master's overhead, if any.
func (a *app) serve() {
	wk := popFront(&a.queue)
	a.serving = wk
	if wk.lastChunk > 0 {
		a.cfg.Sched.Report(wk.index, wk.lastChunk, wk.lastElapsed, a.sim.Now())
	}
	if a.cfg.MasterOverhead > 0 {
		a.sim.Schedule(a.cfg.MasterOverhead, a.step.assign)
		return
	}
	a.assign()
}

// assign computes the served worker's chunk and sends it the
// assignment, or its finalization when no tasks remain.
func (a *app) assign() {
	wk := a.serving
	chunk := a.cfg.Sched.Next(wk.index, a.sim.Now())
	wk.rep = reply{chunk: chunk}
	if chunk > 0 {
		seconds := a.cfg.Work.ChunkTime(a.nextTask, chunk, a.cfg.RNG)
		a.nextTask += chunk
		wk.rep.flops = seconds * a.refSpeed
		a.res.SchedOps++
		a.res.OpsPerWorker[wk.index]++
		a.res.TasksPerWorker[wk.index] += chunk
	} else {
		a.finalized++
	}
	a.sim.Schedule(wk.ctrlTime, a.step.sent)
}

// sent delivers the reply once its transfer ends. The worker is always
// waiting for it, since it blocks on its reply as soon as its request
// arrives. The master then receives the next request, or ends once
// every worker is finalized.
func (a *app) sent() {
	a.sim.Schedule(0, a.serving.step.replied)
	if a.finalized < len(a.workers) {
		a.receive()
		return
	}
	if t := a.sim.Now(); t > a.res.Makespan {
		a.res.Makespan = t
	}
}

// request sends a work request to the master.
func (wk *appWorker) request() {
	wk.sendStart = wk.app.sim.Now()
	wk.app.sim.Schedule(wk.ctrlTime, wk.step.requested)
}

// requested queues the request at the master, waking it if it waits.
// The worker then waits for its reply.
func (wk *appWorker) requested() {
	a := wk.app
	a.queue = append(a.queue, wk)
	if a.waiting {
		a.waiting = false
		a.sim.Schedule(0, a.step.serve)
	}
}

// replied executes the assigned chunk, or ends the worker on
// finalization.
func (wk *appWorker) replied() {
	a := wk.app
	now := a.sim.Now()
	a.res.CommWait[wk.index] += now - wk.sendStart
	if wk.rep.chunk == 0 {
		a.finished++
		if now > a.res.Makespan {
			a.res.Makespan = now
		}
		return
	}
	wk.start = now
	if flops := wk.rep.flops; !(flops <= 0) { // a NaN computes, as Execute's does
		a.sim.Schedule(flops/wk.speed, wk.step.executed)
		return
	}
	wk.executed()
}

// executed records the finished chunk and asks for the next one.
func (wk *appWorker) executed() {
	a := wk.app
	wk.lastElapsed = a.sim.Now() - wk.start
	wk.lastChunk = wk.rep.chunk
	a.res.Compute[wk.index] += wk.lastElapsed
	wk.request()
}
