package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// env is what a workload is set up from: the generated inputs derive
// from seed alone, and everything else only changes how the work is
// executed or observed, never its output.
type env struct {
	seed    uint64
	scale   int // 1 is the benchmark's size; k divides every run count by k
	workers int // engine workers of the local workloads and of reference runs
	tmp     string
	tr      *Tracer           // nil for an untraced run
	pins    map[string]string // pinned output digests, by pinKey
	refs    map[string]string // when non-nil, receives every reference digest checked against, by pinKey
}

// warmUpDivisor sizes the warm-up pass every set-up ends with: 1/50 of
// the workload's whole campaign.
const warmUpDivisor = 50

// pin returns the pinned digest of one slice of the workload's output,
// or else the reference digest computed for it earlier in the run, if
// any.
func (e env) pin(workload string, seed uint64, slice int) (string, bool) {
	key := pinKey(workload, seed, e.scale, slice)
	if d, ok := e.pins[key]; ok {
		return d, true
	}
	d, ok := e.refs[key]
	return d, ok
}

// remember records a reference digest, so a traced run's second window
// reuses the references of its first, and -print-pins can print them.
func (e env) remember(workload string, seed uint64, slice int, digest string) {
	if e.refs != nil {
		e.refs[pinKey(workload, seed, e.scale, slice)] = digest
	}
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, e env) (instance, error)
}

// instance is a set-up workload. round executes one fixed-size unit of
// work; verify checks every output produced so far against its
// reference, computing references the pins do not cover (untimed). An
// instance set up with a tracer reports the per-layer metrics of the
// window it ran through layers; metrics of layers the workload leaves
// idle are left out and reported as 0.
type instance interface {
	round(ctx context.Context) (roundOut, error)
	verify(ctx context.Context) (failed int, problems []string, err error)
	layers(w window) (map[string]float64, error)
	close()
}

// roundOut is what one round did.
type roundOut struct {
	runs   int64 // simulation runs delivered (live or replayed)
	ops    int   // checked operations
	failed int   // operations that failed outright
}

// window is one measured stretch of rounds.
type window struct {
	rounds []float64 // seconds per round
	yard   []float64 // seconds of each yardstick timed between rounds, one more than rounds
	rel    []float64 // each round's time over the mean of the yardsticks before and after it
	dur    time.Duration
	runs   int64
	ops    int
	failed int
	alloc  uint64      // heap bytes the rounds allocated during the window
	sim    runSnapshot // sim-traced backend activity during the window
	first  runSnapshot // the same during the first round alone
}

// measure runs rounds until at least seconds have passed and at least
// one round ran, timing the yardstick before the first round and after
// every round. Heap churn from set-up is collected first so the window's
// allocation count is its rounds' own.
func measure(ctx context.Context, inst instance, seconds float64) (window, error) {
	var w window
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, sim0 := ms.TotalAlloc, simStats.snapshot()
	var yardAlloc uint64
	yard := func() {
		s, a := yardstick()
		w.yard = append(w.yard, s)
		yardAlloc += a
	}
	start := time.Now()
	yard()
	for len(w.rounds) == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		out, err := inst.round(ctx)
		if err != nil {
			// A failed round is a failed operation, and its output is
			// unusable for the rounds after it.
			w.ops++
			w.failed++
			w.dur = time.Since(start)
			return w, err
		}
		d := time.Since(t0).Seconds()
		yard()
		n := len(w.yard)
		w.rounds = append(w.rounds, d)
		w.rel = append(w.rel, d/((w.yard[n-2]+w.yard[n-1])/2))
		if len(w.rounds) == 1 {
			w.first = simStats.snapshot().sub(sim0)
		}
		w.runs += out.runs
		w.ops += out.ops
		w.failed += out.failed
	}
	w.dur = time.Since(start)
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - alloc0 - yardAlloc
	w.sim = simStats.snapshot().sub(sim0)
	return w, nil
}

// setupTimed sets the workload up reps times and returns the last
// instance and the median set-up time. Set-up is repeated because one
// sample of it is dominated by whatever the process did first.
func setupTimed(ctx context.Context, wl workloadDef, e env, reps int) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		ei := e
		ei.tmp = filepath.Join(e.tmp, fmt.Sprintf("setup%d", i))
		start := time.Now()
		var err error
		inst, err = wl.setup(ctx, ei)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, median(times), nil
}
