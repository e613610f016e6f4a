package des

import "testing"

// TestBlockingAllocationFree is the kernel's allocation gate: a process
// that holds, suspends and is woken, and waits with timeouts (both woken
// early and timed out), allocates the same amount whether it does so
// 1 000 or 10 000 times. Only the simulator and its processes cost
// memory; events are values in a reused heap, so a boxed heap element
// or a closure per activation fails here.
func TestBlockingAllocationFree(t *testing.T) {
	run := func(cycles int) func() {
		return func() {
			s := New()
			var early, late int
			sleeper := s.Spawn("sleeper", func(p *Process) {
				for i := 0; i < cycles; i++ {
					p.Hold(1)
					p.Suspend() // woken at +2
					if !p.SuspendTimeout(10) {
						early++ // woken at +3
					}
					if p.SuspendTimeout(0.5) {
						late++ // times out at +3.5
					}
					p.Hold(0.5)
				}
			})
			s.Spawn("waker", func(p *Process) {
				for i := 0; i < cycles; i++ {
					p.Hold(2)
					s.Wake(sleeper)
					p.Hold(1)
					s.Wake(sleeper)
					p.Hold(1)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if early != cycles || late != cycles {
				t.Fatalf("early wakes %d, timeouts %d, want %d each", early, late, cycles)
			}
		}
	}
	small := testing.AllocsPerRun(5, run(1000))
	large := testing.AllocsPerRun(5, run(10000))
	t.Logf("allocations per run: %.1f at 1 000 cycles, %.1f at 10 000", small, large)
	if large > small+1 {
		t.Fatalf("10 000 cycles allocate %.1f times, 1 000 cycles %.1f: the kernel allocates per operation", large, small)
	}
}
