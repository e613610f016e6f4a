package des

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// kernelTraceDigest is the SHA-256 of traceProgram's output, recorded
// when the test was written. The kernel's (time, sequence) event order
// decides every line, so a change to how processes block, resume or
// are scheduled that moves one event changes the digest.
const kernelTraceDigest = "866197769a7fe1ee3d28e190e50881c8a75433e4f2be754743a2198bac562587"

// traceProgram runs one program that exercises every way a process can
// block and resume, and returns its (process, time, event) trace, one
// line per step:
//   - three holders that Hold the same lengths, so activations tie on
//     time and fall back to the sequence order;
//   - a sleeper that Suspends and is woken, whose SuspendTimeout fires
//     once, is woken early once, and whose stale timer then passes
//     while it is suspended again;
//   - Schedule callbacks at times that tie with activations, one of
//     them scheduling another with a negative delay;
//   - a process spawned from inside another, and one spawned with a
//     start delay.
func traceProgram() string {
	s := New()
	var b strings.Builder
	mark := func(who, what string) { fmt.Fprintf(&b, "%s %v %s\n", who, s.Now(), what) }

	var sleeper *Process
	sleeper = s.Spawn("sleeper", func(p *Process) {
		mark(p.Name(), "start")
		p.Suspend() // woken at 1
		mark(p.Name(), "woken")
		mark(p.Name(), fmt.Sprint("timed out ", p.SuspendTimeout(2))) // fires at 3
		mark(p.Name(), fmt.Sprint("timed out ", p.SuspendTimeout(5))) // woken at 4; its timer at 8 goes stale
		p.Suspend()                                                   // woken at 10, not by the stale timer
		mark(p.Name(), "woken again")
		p.Hold(1)
		mark(p.Name(), "done")
	})
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("holder-%d", i), func(p *Process) {
			for j := 0; j < 4; j++ {
				p.Hold(0.5)
				mark(p.Name(), fmt.Sprint("hold ", j))
				if i == 0 && j == 1 {
					s.Schedule(0, func() { mark("callback", "from holder-0") })
					s.Spawn("child", func(c *Process) {
						mark(c.Name(), "start")
						c.Hold(0.25)
						mark(c.Name(), "held")
						c.Hold(0)
						mark(c.Name(), "done")
					})
				}
			}
		})
	}
	s.Spawn("waker", func(p *Process) {
		p.Hold(1)
		s.Wake(sleeper)
		mark(p.Name(), "woke sleeper")
		p.Hold(3)
		s.Wake(sleeper)
		mark(p.Name(), "woke sleeper early")
		s.Wake(sleeper) // no longer suspended: a no-op
		p.Hold(6)
		s.Wake(sleeper)
		mark(p.Name(), "woke sleeper again")
	})
	s.SpawnAt(1.5, "late", func(p *Process) {
		mark(p.Name(), "start")
		p.Hold(0.5)
		mark(p.Name(), "done")
	})
	s.Schedule(1, func() { mark("callback", "at 1") })
	s.Schedule(2, func() {
		mark("callback", "at 2")
		s.Schedule(-1, func() { mark("callback", "clamped to 2") })
	})
	err := s.Run()
	fmt.Fprintf(&b, "end %v %v\n", s.Now(), err)
	return b.String()
}

// TestKernelTraceDigest holds the kernel to the event order it had when
// the digest was recorded. TestDeterminism compares the kernel with
// itself; this compares it with a fixed reference.
func TestKernelTraceDigest(t *testing.T) {
	trace := traceProgram()
	sum := sha256.Sum256([]byte(trace))
	if got := hex.EncodeToString(sum[:]); got != kernelTraceDigest {
		t.Fatalf("trace digest %s, want %s; trace:\n%s", got, kernelTraceDigest, trace)
	}
}
