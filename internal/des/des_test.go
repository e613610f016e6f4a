package des

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestHoldAdvancesTime(t *testing.T) {
	s := New()
	var end float64
	s.Spawn("a", func(p *Process) {
		p.Hold(1.5)
		p.Hold(2.5)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4 {
		t.Fatalf("end time = %v, want 4", end)
	}
	if s.Now() != 4 {
		t.Fatalf("simulator time = %v, want 4", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(3, func() { order = append(order, "c") })
	s.Schedule(1, func() { order = append(order, "a") })
	s.Schedule(2, func() { order = append(order, "b") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events at the same timestamp fire in scheduling order (seq
	// tie-break) — this is what makes simulations deterministic.
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	s := New()
	var trace []string
	mark := func(name string, p *Process) {
		trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now()))
	}
	s.Spawn("a", func(p *Process) {
		mark("a", p)
		p.Hold(2)
		mark("a", p)
	})
	s.Spawn("b", func(p *Process) {
		mark("b", p)
		p.Hold(1)
		mark("b", p)
		p.Hold(2)
		mark("b", p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a@0 b@0 b@1 a@2 b@3"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

func TestSuspendWake(t *testing.T) {
	s := New()
	var got float64
	var waiter *Process
	waiter = s.Spawn("waiter", func(p *Process) {
		p.Suspend()
		got = p.Now()
	})
	s.Spawn("waker", func(p *Process) {
		p.Hold(5)
		p.Sim().Wake(waiter)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("woken at %v, want 5", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	s.Spawn("stuck", func(p *Process) {
		p.Suspend()
	})
	err := s.Run()
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("error %q does not name the stuck process", err)
	}
}

func TestWakeNonSuspendedIsNoop(t *testing.T) {
	s := New()
	p := s.Spawn("a", func(p *Process) { p.Hold(1) })
	s.Wake(p) // not suspended; must not panic or corrupt state
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnAt(t *testing.T) {
	s := New()
	var start float64
	s.SpawnAt(7, "late", func(p *Process) { start = p.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 7 {
		t.Fatalf("late process started at %v, want 7", start)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := New()
	var childTime float64
	s.Spawn("parent", func(p *Process) {
		p.Hold(3)
		p.Sim().Spawn("child", func(c *Process) {
			c.Hold(1)
			childTime = c.Now()
		})
		p.Hold(10)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 4 {
		t.Fatalf("child finished at %v, want 4", childTime)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(5, func() {
		s.Schedule(-3, func() { fired = true })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 5 {
		t.Fatalf("time = %v, want 5 (clamped)", s.Now())
	}
}

// TestDeterminism runs the same mildly complex program twice and compares
// full traces.
func TestDeterminism(t *testing.T) {
	program := func() []string {
		s := New()
		var trace []string
		var procs []*Process
		for i := 0; i < 5; i++ {
			i := i
			p := s.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
				for j := 0; j < 3; j++ {
					p.Hold(float64(i+1) * 0.5)
					trace = append(trace, fmt.Sprintf("%s@%.1f", p.Name(), p.Now()))
				}
			})
			procs = append(procs, p)
		}
		_ = procs
		if err := s.Run(); err != nil {
			panic(err)
		}
		return trace
	}
	a := strings.Join(program(), " ")
	b := strings.Join(program(), " ")
	if a != b {
		t.Fatalf("traces differ:\n%s\n%s", a, b)
	}
}

func TestRunTwice(t *testing.T) {
	s := New()
	s.Spawn("a", func(p *Process) { p.Hold(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Spawn more work and run again; time continues from 1.
	var second float64
	s.Spawn("b", func(p *Process) {
		p.Hold(2)
		second = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if second != 3 {
		t.Fatalf("second phase ended at %v, want 3", second)
	}
}

func BenchmarkHoldLoop(b *testing.B) {
	s := New()
	s.Spawn("bench", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(0.001)
		}
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHandOff alternates two processes, so every activation
// passes control to the other process.
func BenchmarkHandOff(b *testing.B) {
	s := New()
	for _, start := range []float64{0, 0.5} {
		s.SpawnAt(start, "bench", func(p *Process) {
			for i := 0; i < b.N/2; i++ {
				p.Hold(1)
			}
		})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkScheduleDispatch(b *testing.B) {
	s := New()
	var count int
	var again func()
	again = func() {
		count++
		if count < b.N {
			s.Schedule(0.001, again)
		}
	}
	s.Schedule(0, again)
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestSuspendTimeoutFires(t *testing.T) {
	s := New()
	var woke float64
	var timedOut bool
	s.Spawn("sleeper", func(p *Process) {
		timedOut = p.SuspendTimeout(3)
		woke = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if woke != 3 {
		t.Fatalf("woke at %v, want 3", woke)
	}
}

func TestSuspendTimeoutWokenEarly(t *testing.T) {
	s := New()
	var timedOut bool
	var woke float64
	var waiter *Process
	waiter = s.Spawn("waiter", func(p *Process) {
		timedOut = p.SuspendTimeout(100)
		woke = p.Now()
		// The stale timer at t=100 must not disturb a later suspend.
		p.Suspend()
	})
	s.Spawn("waker", func(p *Process) {
		p.Hold(2)
		p.Sim().Wake(waiter)
		p.Hold(200) // past the stale timer
		p.Sim().Wake(waiter)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("woken early but reported timeout")
	}
	if woke != 2 {
		t.Fatalf("woke at %v, want 2", woke)
	}
	if s.Now() != 202 {
		t.Fatalf("final time %v, want 202 (second wake)", s.Now())
	}
}

func TestSuspendTimeoutStaleTimerIgnored(t *testing.T) {
	// A process that times out and then suspends again must not be woken
	// by its own stale timer.
	s := New()
	var wakes []float64
	var target *Process
	target = s.Spawn("t", func(p *Process) {
		p.SuspendTimeout(1) // fires at t=1
		wakes = append(wakes, p.Now())
		p.SuspendTimeout(10) // fires at t=11, NOT disturbed by anything at t=1
		wakes = append(wakes, p.Now())
	})
	_ = target
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 2 || wakes[0] != 1 || wakes[1] != 11 {
		t.Fatalf("wakes = %v, want [1 11]", wakes)
	}
}

// TestRunStopsLeftoverProcesses runs ten simulations that each end in a
// deadlock of five suspended processes. Run must stop every one of
// them: each body unwinds, so its deferred call runs (one tries to
// block again, one swallows the unwinding), and no goroutine outlives
// its run.
func TestRunStopsLeftoverProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for run := 0; run < 10; run++ {
		s := New()
		for i := 0; i < 5; i++ {
			s.Spawn(fmt.Sprintf("stuck-%d", i), func(p *Process) {
				defer func() { unwound++ }()
				switch i {
				case 0:
					defer p.Hold(1)
				case 1:
					defer func() { recover() }()
				}
				p.Hold(float64(i))
				p.Suspend()
				t.Errorf("%s resumed after the deadlock", p.Name())
			})
		}
		err := s.Run()
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("run %d: err = %v, want a deadlock", run, err)
		}
		if s.Now() != 4 {
			t.Fatalf("run %d: clock at %v after stopping, want 4", run, s.Now())
		}
	}
	if unwound != 50 {
		t.Fatalf("%d of 50 deadlocked bodies unwound", unwound)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines went from %d to %d across 10 deadlocked runs", before, after)
	}
}

// TestPanicSurfacesOnRun checks that a panic in a process body reaches
// Run's caller with its value, and that the other live processes are
// stopped on the way out without running anything: a deferred Hold of
// a stopped process neither advances the clock nor fires the callback
// still queued.
func TestPanicSurfacesOnRun(t *testing.T) {
	s := New()
	unwound, fired := false, 0
	s.Spawn("waiter", func(p *Process) {
		defer func() { unwound = true }()
		defer p.Hold(1)
		p.Suspend()
	})
	s.Spawn("faulty", func(p *Process) {
		p.Hold(1)
		panic("boom")
	})
	s.Schedule(5, func() { fired++ })
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want boom", got)
	}
	if !unwound {
		t.Fatal("the suspended process was not stopped")
	}
	if s.Now() != 1 || fired != 0 {
		t.Fatalf("stopping moved the clock to %v and fired %d callbacks, want 1 and 0", s.Now(), fired)
	}
	// The simulator stays usable.
	s.Spawn("after", func(p *Process) { p.Hold(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 5 || fired != 1 {
		t.Fatalf("time = %v with %d callbacks fired, want 5 and 1", s.Now(), fired)
	}
}
