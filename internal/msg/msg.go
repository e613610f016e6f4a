// Package msg implements a SimGrid-MSG-style interface on top of the
// discrete-event kernel (internal/des) and the platform model
// (internal/platform): processes pinned to hosts exchange tasks through
// named mailboxes, computation costs flops divided by host speed, and
// message transfers cost route latency plus bytes over bottleneck
// bandwidth.
//
// This is the heavyweight, verification-grade counterpart of the
// chunk-granularity simulator in internal/sim; app.go builds the paper's
// Figure 1 master–worker execution model on top of it, and integration
// tests cross-validate the two.
//
// RunApp runs that model as a chain of kernel callbacks rather than as
// processes, because a process switch costs two coroutine switches
// while a callback is one event. Each callback is scheduled exactly
// where the process form pushed its activation: a Hold, Execute, Sleep
// or send transfer becomes a callback after the same delay, and a Wake
// one at the current time. The kernel orders callbacks and activations
// by one (time, sequence) key, so the callbacks run in the process
// form's order and produce its bits; a differential test and a fuzz
// target keep the process form as the reference. RunResilientApp stays
// on processes, whose receive timeout is its failure detector.
package msg

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/platform"
)

// Engine couples a simulator with a platform.
type Engine struct {
	sim       *des.Simulator
	plat      *platform.Platform
	mailboxes map[string]*Mailbox
	functions map[string]Function
}

// Function is a process body deployable from a deployment file.
type Function func(p *Process, args []string)

// NewEngine returns an engine simulating on the given platform.
func NewEngine(plat *platform.Platform) *Engine {
	return &Engine{sim: des.New(), plat: plat}
}

// Sim exposes the underlying kernel (for tests and advanced scheduling).
func (e *Engine) Sim() *des.Simulator { return e.sim }

// Platform returns the platform the engine simulates on.
func (e *Engine) Platform() *platform.Platform { return e.plat }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.sim.Now() }

// Run executes the simulation to completion.
func (e *Engine) Run() error { return e.sim.Run() }

// Task is the unit of exchanged work, mirroring MSG tasks: a message
// size (bytes) and an arbitrary payload.
type Task struct {
	Name    string
	Bytes   float64
	Payload any
	Source  string // sending host name, set on Send
}

// Mailbox is a named rendezvous point. Like SimGrid mailboxes it is
// location-transparent for senders, but each mailbox is pinned to an
// owner host so transfer costs are well defined before the receiver is
// known (a documented simplification; the master–worker protocol always
// receives on the declaring host anyway).
type Mailbox struct {
	name    string
	owner   *platform.Host
	queue   []*Task
	waiters []*Process // FIFO receivers blocked on empty queue
}

// DeclareMailbox creates mailbox name owned by (received on) host.
func (e *Engine) DeclareMailbox(name, host string) error {
	_, err := e.declare(name, host)
	return err
}

// declare is DeclareMailbox returning the new mailbox, so a caller can
// send and receive through it without a lookup per message.
func (e *Engine) declare(name, host string) (*Mailbox, error) {
	if _, dup := e.mailboxes[name]; dup {
		return nil, fmt.Errorf("msg: duplicate mailbox %q", name)
	}
	h, err := e.plat.Host(host)
	if err != nil {
		return nil, fmt.Errorf("msg: mailbox %q: %w", name, err)
	}
	if e.mailboxes == nil {
		// Created on first use, since RunApp declares none. Sized for
		// one mailbox per host, as the resilient master declares.
		e.mailboxes = make(map[string]*Mailbox, e.plat.NumHosts())
	}
	mb := &Mailbox{name: name, owner: h}
	e.mailboxes[name] = mb
	return mb, nil
}

func (e *Engine) mailbox(name string) (*Mailbox, error) {
	mb, ok := e.mailboxes[name]
	if !ok {
		return nil, fmt.Errorf("msg: unknown mailbox %q", name)
	}
	return mb, nil
}

// Process is a thread of control pinned to a host.
type Process struct {
	dp   *des.Process
	eng  *Engine
	host *platform.Host
}

// Host returns the host the process runs on.
func (p *Process) Host() *platform.Host { return p.host }

// Name returns the process name.
func (p *Process) Name() string { return p.dp.Name() }

// Now returns the current virtual time.
func (p *Process) Now() float64 { return p.dp.Now() }

// Spawn starts a process named name running body on the given host.
func (e *Engine) Spawn(host, name string, body func(*Process)) error {
	return e.SpawnAt(0, host, name, body)
}

// SpawnAt is Spawn with a start delay (deployment start_time).
func (e *Engine) SpawnAt(delay float64, host, name string, body func(*Process)) error {
	h, err := e.plat.Host(host)
	if err != nil {
		return fmt.Errorf("msg: spawn %q: %w", name, err)
	}
	e.sim.SpawnAt(delay, name, func(dp *des.Process) {
		body(&Process{dp: dp, eng: e, host: h})
	})
	return nil
}

// Execute simulates flops of computation on the process's host: the
// process is busy for flops/speed seconds.
func (p *Process) Execute(flops float64) {
	if flops <= 0 {
		return
	}
	p.dp.Hold(flops / p.host.Speed)
}

// Sleep blocks the process for d seconds of virtual time.
func (p *Process) Sleep(d float64) { p.dp.Hold(d) }

// Send transmits t to the named mailbox. The sender blocks for the
// transfer time from its host to the mailbox's owner host (MSG_task_send
// semantics); on return the task is delivered and any waiting receiver
// has been woken.
func (p *Process) Send(mailbox string, t *Task) error {
	mb, err := p.eng.mailbox(mailbox)
	if err != nil {
		return err
	}
	route, err := p.eng.plat.Route(p.host.Name, mb.owner.Name)
	if err != nil {
		return fmt.Errorf("msg: send to %q: %w", mailbox, err)
	}
	p.send(mb, t, route.TransferTime(t.Bytes))
	return nil
}

// send is Send to a resolved mailbox whose transfer time is known.
func (p *Process) send(mb *Mailbox, t *Task, transfer float64) {
	t.Source = p.host.Name
	p.dp.Hold(transfer)
	mb.queue = append(mb.queue, t)
	if len(mb.waiters) > 0 {
		p.eng.sim.Wake(popFront(&mb.waiters).dp)
	}
}

// popFront removes and returns the first element of *q. It shifts the
// rest down instead of reslicing past the head, so the backing array
// survives and a steady send/receive stream appends into it without
// reallocating. The shift moves every queued entry, which stays cheap
// because queues are short: in the master–worker protocol a mailbox
// holds at most one message per worker.
func popFront[T any](q *[]*T) *T {
	s := *q
	first := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	*q = s[:n]
	return first
}

// take dequeues the oldest task of mb, which must not be empty. If
// tasks remain and more receivers wait, it chains the wake-up so no
// delivery is lost when several sends precede the receives.
func (p *Process) take(mb *Mailbox) *Task {
	t := popFront(&mb.queue)
	if len(mb.queue) > 0 && len(mb.waiters) > 0 {
		p.eng.sim.Wake(popFront(&mb.waiters).dp)
	}
	return t
}

// recvTimeout is recv with a deadline: it returns (task, true) when a
// task arrived, or (nil, false) after d seconds without one. The
// resilient master uses it as its failure-detection watchdog.
func (p *Process) recvTimeout(mb *Mailbox, d float64) (*Task, bool) {
	for len(mb.queue) == 0 {
		mb.waiters = append(mb.waiters, p)
		if p.dp.SuspendTimeout(d) {
			// Timed out: withdraw from the waiter list so a later send
			// does not try to hand work to a process that moved on.
			for i, w := range mb.waiters {
				if w == p {
					mb.waiters = append(mb.waiters[:i], mb.waiters[i+1:]...)
					break
				}
			}
			return nil, false
		}
	}
	return p.take(mb), true
}

// Recv blocks until a task is available in the named mailbox and returns
// it. Receivers are served in FIFO order.
func (p *Process) Recv(mailbox string) (*Task, error) {
	mb, err := p.eng.mailbox(mailbox)
	if err != nil {
		return nil, err
	}
	return p.recv(mb), nil
}

// recv is Recv on a resolved mailbox.
func (p *Process) recv(mb *Mailbox) *Task {
	for len(mb.queue) == 0 {
		mb.waiters = append(mb.waiters, p)
		p.dp.Suspend()
	}
	return p.take(mb)
}

// RegisterFunction names a process body so deployment files can refer to
// it, mirroring MSG_function_register.
func (e *Engine) RegisterFunction(name string, fn Function) error {
	if _, dup := e.functions[name]; dup {
		return fmt.Errorf("msg: duplicate function %q", name)
	}
	if fn == nil {
		return fmt.Errorf("msg: nil function %q", name)
	}
	if e.functions == nil {
		e.functions = make(map[string]Function)
	}
	e.functions[name] = fn
	return nil
}

// Deploy spawns every process of a deployment, resolving function names
// through the registry (MSG_launch_application).
func (e *Engine) Deploy(d *platform.Deployment) error {
	if err := d.Validate(e.plat); err != nil {
		return err
	}
	for i, dp := range d.Processes {
		fn, ok := e.functions[dp.Function]
		if !ok {
			return fmt.Errorf("msg: deployment process %d: unregistered function %q", i, dp.Function)
		}
		args := dp.Arguments
		name := fmt.Sprintf("%s-%d", dp.Function, i)
		err := e.SpawnAt(dp.StartTime, dp.Host, name, func(p *Process) { fn(p, args) })
		if err != nil {
			return err
		}
	}
	return nil
}
