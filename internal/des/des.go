//go:build go1.23

// iter.Pull needs Go 1.23. The build line above raises this file's
// language version to 1.23 while go.mod stays at go 1.22, the version
// the benchmark module (which builds this package through a replace
// directive) pins. Move both go.mod files to 1.23 and drop the line
// together.

// Package des is a deterministic, process-oriented discrete-event
// simulation kernel — the core this repository's SimGrid-MSG equivalent
// (internal/msg) is built on.
//
// Simulated processes are coroutines (iter.Pull), and exactly one of
// them executes at any moment. Run is the scheduler loop: it resumes
// whichever process the dispatch loop returns. A process that blocks
// (Hold, Suspend, SuspendTimeout, or returning from its body) runs the
// dispatch loop itself. It pops events in (time, sequence) order and
// runs callback events inline. When the next activation is its own — a
// Hold that nothing else precedes — it carries on without a switch;
// otherwise it records the next process and yields to Run, which
// resumes that one. A process switch is therefore two coroutine
// switches and never goes through the Go scheduler, and scheduling an
// event allocates nothing: events are plain values in an inline heap.
// On a 2-CPU x86-64 host a Hold that continues without a switch takes
// about 40 ns (BenchmarkHoldLoop) and a switch 210–240 ns, down from
// 350–370 ns when processes were goroutines handing a channel baton to
// each other (BenchmarkHandOff).
//
// A panic in a process body surfaces on Run's goroutine, where the
// caller can recover it. When Run returns an error or panics, it stops
// every process still alive, so their bodies unwind (deferred calls
// run) and nothing outlives the run.
//
// Because events fire in (time, sequence) order, two runs of the same
// program produce identical traces — a property the paper's
// reproducibility methodology depends on and which the tests verify.
//
// The kernel knows nothing about hosts, tasks or messages; those live in
// internal/platform and internal/msg.
package des

import (
	"fmt"
	"iter"
	"math"
	"sort"
)

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now    float64
	seq    uint64
	events eventQueue

	next *Process // the process a yielding process asks Run to resume
	err  error    // why the dispatch loop stopped early, if it did

	live    []*Process // spawned and not yet terminated, in any order
	running bool
}

// New returns an empty simulator at virtual time 0.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

type eventKind uint8

const (
	evCall     eventKind = iota // run fn
	evActivate                  // resume proc
	evTimeout                   // resume proc if it still waits in suspend cycle gen
)

// event is one entry of the queue. Only Schedule's callbacks carry a
// closure; process activations are described by their fields.
type event struct {
	t    float64
	seq  uint64
	kind eventKind
	proc *Process
	gen  uint64
	fn   func()
}

// eventQueue is a binary min-heap ordered by (t, seq). It is hand-rolled
// because container/heap boxes every element it pushes. seq is unique,
// so the order is total and any correct heap pops the same sequence.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event. It must not be called on
// an empty queue.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the references the vacated slot holds
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// push queues ev at virtual time now+delay. Negative delays are clamped
// to zero (fire "immediately", after already-queued same-time events).
func (s *Simulator) push(delay float64, ev event) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	s.seq++
	ev.t = s.now + delay
	ev.seq = s.seq
	s.events.push(ev)
}

// Schedule runs fn at virtual time now+delay. Negative delays are clamped
// to zero (fire "immediately", after already-queued same-time events).
func (s *Simulator) Schedule(delay float64, fn func()) {
	s.push(delay, event{kind: evCall, fn: fn})
}

// Process is a simulated thread of control. All its methods must be
// called from within the process's own body function.
type Process struct {
	sim    *Simulator
	name   string
	body   func(*Process)
	resume func() (struct{}, bool) // runs the process until it yields or ends
	stop   func()                  // unwinds a process that has not ended
	yield  func(struct{}) bool     // hands control back to Run
	slot   int                     // index in sim.live

	waitGen   uint64 // suspend/resume cycle counter, invalidates stale timers
	dead      bool
	suspended bool // blocked without a scheduled activation
	timedOut  bool // outcome of the last SuspendTimeout
}

// Name returns the process name given at spawn time.
func (p *Process) Name() string { return p.name }

// Sim returns the simulator the process belongs to.
func (p *Process) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Process) Now() float64 { return p.sim.now }

// Spawn creates a process that starts executing body at the current
// virtual time (after already-queued events). It may be called before Run
// or from within another process.
func (s *Simulator) Spawn(name string, body func(*Process)) *Process {
	return s.SpawnAt(0, name, body)
}

// SpawnAt is Spawn with a start delay, mirroring SimGrid deployment
// files' start_time attribute.
func (s *Simulator) SpawnAt(delay float64, name string, body func(*Process)) *Process {
	p := &Process{sim: s, name: name, body: body, slot: len(s.live)}
	p.resume, p.stop = iter.Pull(p.main)
	s.live = append(s.live, p)
	s.push(delay, event{kind: evActivate, proc: p})
	return p
}

// stopped is the panic that unwinds a process Run stops.
type stopped struct{}

// main is the coroutine of p: it runs the body from its first
// activation and, when the body returns, leaves the live set and tells
// Run which process comes next.
func (p *Process) main(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if p.dead {
			// Run stopped p; any panic other than the unwinding one
			// propagates to Run's goroutine.
			if r := recover(); r != nil && r != (stopped{}) {
				panic(r)
			}
		}
	}()
	p.body(p)
	if p.dead {
		return // the body recovered the unwinding panic
	}
	s := p.sim
	s.remove(p)
	s.next = s.dispatch()
}

// remove marks p dead and takes it out of the live set.
func (s *Simulator) remove(p *Process) {
	p.dead = true
	last := len(s.live) - 1
	s.live[p.slot] = s.live[last]
	s.live[p.slot].slot = p.slot
	s.live[last] = nil
	s.live = s.live[:last]
}

// dispatch pops events in (time, seq) order, running callbacks inline,
// until one activates a process, and returns that process. It returns
// nil when the queue is empty or the loop stopped with an error.
func (s *Simulator) dispatch() *Process {
	for len(s.events) > 0 {
		ev := s.events.pop()
		if ev.t < s.now {
			s.err = fmt.Errorf("des: time went backwards: %v -> %v", s.now, ev.t)
			return nil
		}
		s.now = ev.t
		switch ev.kind {
		case evCall:
			ev.fn()
		case evActivate:
			if !ev.proc.dead {
				return ev.proc
			}
		case evTimeout:
			if p := ev.proc; p.suspended && p.waitGen == ev.gen {
				p.suspended = false
				p.timedOut = true
				return p
			}
		}
	}
	return nil
}

// block gives up control until p is activated again. When p's own
// activation is the next event, p carries on without a switch;
// otherwise it yields to Run, which resumes the next process.
func (p *Process) block() {
	if p.dead {
		panic(stopped{}) // a deferred call of a stopped process blocked
	}
	s := p.sim
	next := s.dispatch()
	if next == p {
		return
	}
	s.next = next
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Hold advances the process's virtual time by d seconds (the simulated
// equivalent of doing work or sleeping for d).
func (p *Process) Hold(d float64) {
	p.sim.push(d, event{kind: evActivate, proc: p})
	p.block()
}

// Suspend blocks the process indefinitely; some other event must Wake it.
// Suspended processes with no pending events constitute a deadlock, which
// Run reports as an error.
func (p *Process) Suspend() {
	p.suspended = true
	p.block()
	p.waitGen++
}

// SuspendTimeout blocks like Suspend but resumes by itself after d
// seconds if nothing woke the process earlier. It reports whether the
// wake-up was the timeout (true) or an explicit Wake (false). Stale
// timers from earlier suspend cycles are ignored.
func (p *Process) SuspendTimeout(d float64) (timedOut bool) {
	p.timedOut = false
	p.suspended = true
	p.sim.push(d, event{kind: evTimeout, proc: p, gen: p.waitGen})
	p.block()
	p.waitGen++
	return p.timedOut
}

// Wake schedules the suspended process to resume at the current virtual
// time. Waking a process that is not suspended is a no-op.
func (s *Simulator) Wake(p *Process) {
	if !p.suspended {
		return
	}
	p.suspended = false
	s.push(0, event{kind: evActivate, proc: p})
}

// Run executes events until none remain. It is the scheduler loop:
// it resumes the process the dispatch loop activates, and each process
// that yields names the next one. It returns an error if processes are
// still alive afterwards (a deadlock: every remaining process is
// suspended with nobody left to wake it). Run may be called again after
// spawning more processes; processes alive when Run returns an error
// (or panics) are stopped and never run again.
func (s *Simulator) Run() error {
	if s.running {
		return fmt.Errorf("des: Run called reentrantly")
	}
	s.running = true
	defer func() {
		s.running = false
		s.stopLive()
	}()
	for p := s.dispatch(); p != nil; p = s.next {
		p.resume()
	}
	if err := s.err; err != nil {
		s.err = nil
		return err
	}
	if len(s.live) > 0 {
		var names []string
		for _, p := range s.live {
			if p.suspended {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		return fmt.Errorf("des: deadlock at t=%v: %d live processes, suspended: %v", s.now, len(s.live), names)
	}
	return nil
}

// stopLive stops every live process, most recently listed first: a
// started one unwinds from the point where it blocked, running its
// deferred calls, and one that never started never runs.
func (s *Simulator) stopLive() {
	for len(s.live) > 0 {
		p := s.live[len(s.live)-1]
		s.remove(p)
		p.suspended = false
		p.stop()
	}
}
