// Package workload generates per-task execution times for the loop
// scheduling experiments. It covers every distribution used by the two
// publications the paper reproduces — constant, random (uniform),
// decreasing and increasing workloads from the TSS publication (Tzen & Ni,
// 1993) and exponential task times from the BOLD publication (Hagerup,
// 1997) — plus the additional distributions earlier DLS work studied
// (normal, gamma, bimodal).
//
// A Workload answers two questions:
//
//   - Time(i, r): the execution time of task i (a single loop iteration),
//     possibly consuming randomness from r.
//   - ChunkTime(start, count, r): the total execution time of the
//     contiguous chunk [start, start+count). For deterministic workloads
//     this is a closed form; for i.i.d. exponential tasks the sum is drawn
//     in O(1) as a Gamma(count, mean) variate, which is distributionally
//     identical to summing count exponentials. Other random workloads
//     sum task by task unless the caller opts into the Gaussian (CLT)
//     approximation.
//
// All times are in seconds of simulated time.
package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Workload yields per-task and per-chunk execution times.
type Workload interface {
	// Name identifies the workload in tables and CLI flags.
	Name() string
	// Time returns the execution time of task i in seconds. Deterministic
	// workloads ignore r; it must be non-nil for random workloads.
	Time(i int64, r *rng.Rand48) float64
	// ChunkTime returns the total execution time of tasks
	// [start, start+count).
	ChunkTime(start, count int64, r *rng.Rand48) float64
	// Mean returns the mean task execution time µ.
	Mean() float64
	// Std returns the standard deviation σ of task execution times.
	Std() float64
	// Deterministic reports whether task times are a pure function of the
	// task index (no randomness consumed). Deterministic workloads may be
	// simulated without an RNG.
	Deterministic() bool
}

// Constant is the simplest workload: every task takes exactly C seconds.
// The TSS publication's experiments 1 and 2 use constant workloads of
// 110 µs and 2 ms.
type Constant struct{ C float64 }

// NewConstant returns a constant workload of c seconds per task.
func NewConstant(c float64) Constant { return Constant{C: c} }

func (w Constant) Name() string                                    { return "constant" }
func (w Constant) Time(i int64, _ *rng.Rand48) float64             { return w.C }
func (w Constant) ChunkTime(_, count int64, _ *rng.Rand48) float64 { return w.C * float64(count) }
func (w Constant) Mean() float64                                   { return w.C }
func (w Constant) Std() float64                                    { return 0 }
func (w Constant) Deterministic() bool                             { return true }

// Linear models the TSS publication's increasing and decreasing workloads:
// task i takes A + B*i seconds (B < 0 for decreasing). Times are clamped
// at Floor to stay positive. N is the total task count, needed to report
// exact aggregate moments.
type Linear struct {
	A, B  float64
	N     int64
	Floor float64
}

// NewIncreasing returns a linear workload rising from first to last
// seconds across n tasks.
func NewIncreasing(first, last float64, n int64) Linear {
	b := 0.0
	if n > 1 {
		b = (last - first) / float64(n-1)
	}
	return Linear{A: first, B: b, N: n}
}

// NewDecreasing returns a linear workload falling from first to last
// seconds across n tasks.
func NewDecreasing(first, last float64, n int64) Linear {
	return NewIncreasing(first, last, n)
}

func (w Linear) Name() string {
	if w.B < 0 {
		return "decreasing"
	}
	if w.B > 0 {
		return "increasing"
	}
	return "constant"
}

func (w Linear) Time(i int64, _ *rng.Rand48) float64 {
	v := w.A + w.B*float64(i)
	if v < w.Floor {
		return w.Floor
	}
	return v
}

// ChunkTime sums the arithmetic series in closed form. Clamping at Floor
// is ignored in the closed form; constructors produce non-negative times
// for all i < N, so the closed form is exact on valid indices.
func (w Linear) ChunkTime(start, count int64, _ *rng.Rand48) float64 {
	if count <= 0 {
		return 0
	}
	// Sum_{i=start}^{start+count-1} (A + B*i)
	k := float64(count)
	first := float64(start)
	return w.A*k + w.B*(k*first+k*(k-1)/2)
}

func (w Linear) Mean() float64 {
	if w.N <= 0 {
		return w.A
	}
	return w.A + w.B*float64(w.N-1)/2
}

func (w Linear) Deterministic() bool { return true }

func (w Linear) Std() float64 {
	if w.N <= 1 {
		return 0
	}
	// Variance of A+B*i over i = 0..N-1 is B^2 * (N^2-1)/12.
	n := float64(w.N)
	return math.Abs(w.B) * math.Sqrt((n*n-1)/12)
}

// Exponential draws i.i.d. exponential task times with the given mean.
// This is the BOLD publication's workload (µ = 1 s, so σ = µ = 1 s).
type Exponential struct{ Mu float64 }

// NewExponential returns an exponential workload with mean mu.
func NewExponential(mu float64) Exponential { return Exponential{Mu: mu} }

func (w Exponential) Name() string { return "exponential" }

func (w Exponential) Time(_ int64, r *rng.Rand48) float64 {
	return rng.Exponential(r, w.Mu)
}

// ChunkTime draws the sum of count i.i.d. exponentials in O(1) as a
// Gamma(count, Mu) variate. For count <= gammaCutoff the exponentials are
// summed directly; tiny chunks dominate techniques like SS and the direct
// sum is both exact and faster there.
func (w Exponential) ChunkTime(_, count int64, r *rng.Rand48) float64 {
	if count <= 0 {
		return 0
	}
	if count <= gammaCutoff {
		return rng.ErlangSum(r, count, w.Mu)
	}
	return rng.Gamma(r, float64(count), w.Mu)
}

func (w Exponential) Mean() float64       { return w.Mu }
func (w Exponential) Std() float64        { return w.Mu }
func (w Exponential) Deterministic() bool { return false }

// gammaCutoff is the chunk size below which Exponential.ChunkTime sums
// individual draws instead of sampling a Gamma variate.
const gammaCutoff = 8

// UniformRandom draws i.i.d. uniform task times in [Lo, Hi) — the TSS
// publication's "random" workload.
type UniformRandom struct{ Lo, Hi float64 }

// NewUniformRandom returns a uniform workload on [lo, hi).
func NewUniformRandom(lo, hi float64) UniformRandom { return UniformRandom{Lo: lo, Hi: hi} }

func (w UniformRandom) Name() string { return "uniform" }

func (w UniformRandom) Time(_ int64, r *rng.Rand48) float64 {
	return rng.Uniform(r, w.Lo, w.Hi)
}

func (w UniformRandom) ChunkTime(start, count int64, r *rng.Rand48) float64 {
	return sumTimes(w, start, count, r)
}

func (w UniformRandom) Mean() float64       { return (w.Lo + w.Hi) / 2 }
func (w UniformRandom) Std() float64        { return (w.Hi - w.Lo) / math.Sqrt(12) }
func (w UniformRandom) Deterministic() bool { return false }

// Normal draws i.i.d. normal task times truncated below at Floor (default
// 0): negative execution times are physically meaningless, so samples
// below the floor are clamped. For the parameter ranges used in DLS
// studies (σ ≤ µ/3) the clamping probability is negligible and the
// reported moments remain the untruncated ones.
type Normal struct {
	Mu, Sigma float64
	Floor     float64
}

// NewNormal returns a normal workload N(mu, sigma²) clamped at 0.
func NewNormal(mu, sigma float64) Normal { return Normal{Mu: mu, Sigma: sigma} }

func (w Normal) Name() string { return "normal" }

func (w Normal) Time(_ int64, r *rng.Rand48) float64 {
	v := rng.Normal(r, w.Mu, w.Sigma)
	if v < w.Floor {
		return w.Floor
	}
	return v
}

func (w Normal) ChunkTime(start, count int64, r *rng.Rand48) float64 {
	return sumTimes(w, start, count, r)
}

func (w Normal) Mean() float64       { return w.Mu }
func (w Normal) Std() float64        { return w.Sigma }
func (w Normal) Deterministic() bool { return false }

// Gamma draws i.i.d. gamma task times (shape, scale). Gamma workloads
// appear throughout the DLS robustness literature as a model of
// right-skewed task times with tunable coefficient of variation.
type Gamma struct{ Shape, Scale float64 }

// NewGamma returns a gamma workload with the given shape and scale.
func NewGamma(shape, scale float64) Gamma { return Gamma{Shape: shape, Scale: scale} }

func (w Gamma) Name() string { return "gamma" }

func (w Gamma) Time(_ int64, r *rng.Rand48) float64 {
	return rng.Gamma(r, w.Shape, w.Scale)
}

// ChunkTime exploits gamma additivity: the sum of count i.i.d.
// Gamma(shape, scale) variates is Gamma(count*shape, scale).
func (w Gamma) ChunkTime(_, count int64, r *rng.Rand48) float64 {
	if count <= 0 {
		return 0
	}
	return rng.Gamma(r, float64(count)*w.Shape, w.Scale)
}

func (w Gamma) Mean() float64       { return w.Shape * w.Scale }
func (w Gamma) Std() float64        { return math.Sqrt(w.Shape) * w.Scale }
func (w Gamma) Deterministic() bool { return false }

// Bimodal mixes two constant task classes: a fraction PHeavy of tasks
// takes Heavy seconds, the rest Light seconds. It models loops whose
// iterations fall into fast/slow classes (e.g. boundary vs. interior
// cells) and is the adversarial case for static chunking.
type Bimodal struct {
	Light, Heavy float64
	PHeavy       float64
}

// NewBimodal returns a bimodal workload.
func NewBimodal(light, heavy, pHeavy float64) Bimodal {
	return Bimodal{Light: light, Heavy: heavy, PHeavy: pHeavy}
}

func (w Bimodal) Name() string { return "bimodal" }

func (w Bimodal) Time(_ int64, r *rng.Rand48) float64 {
	if r.Erand48() < w.PHeavy {
		return w.Heavy
	}
	return w.Light
}

func (w Bimodal) ChunkTime(start, count int64, r *rng.Rand48) float64 {
	return sumTimes(w, start, count, r)
}

func (w Bimodal) Mean() float64 {
	return w.PHeavy*w.Heavy + (1-w.PHeavy)*w.Light
}

func (w Bimodal) Deterministic() bool { return false }

func (w Bimodal) Std() float64 {
	m := w.Mean()
	v := w.PHeavy*(w.Heavy-m)*(w.Heavy-m) + (1-w.PHeavy)*(w.Light-m)*(w.Light-m)
	return math.Sqrt(v)
}

// sumTimes is the generic task-by-task chunk accumulator used by
// workloads without a closed-form or additive fast path.
func sumTimes(w Workload, start, count int64, r *rng.Rand48) float64 {
	var s float64
	for i := int64(0); i < count; i++ {
		s += w.Time(start+i, r)
	}
	return s
}

// Total returns the sequential execution time of all n tasks of a
// deterministic workload (its exact closed form), or n*Mean() for random
// workloads (the expectation).
func Total(w Workload, n int64) float64 {
	switch w := w.(type) {
	case Constant:
		return w.C * float64(n)
	case Linear:
		return w.ChunkTime(0, n, nil)
	default:
		return float64(n) * w.Mean()
	}
}

// Spec is a parseable description of a workload, used by CLI tools and
// experiment files. Fields mirror paper Figure 2's "Task Execution
// Times" box: a distribution with its parameters, or, for kind
// explicit, the recorded time of every task (a trace file's per-task
// times, trace.PerTaskTimes).
type Spec struct {
	Kind  string    `json:"kind"`            // constant, uniform, increasing, decreasing, exponential, normal, gamma, bimodal, explicit
	P1    float64   `json:"p1,omitempty"`    // first parameter (see Build)
	P2    float64   `json:"p2,omitempty"`    // second parameter
	P3    float64   `json:"p3,omitempty"`    // third parameter (bimodal heavy probability)
	N     int64     `json:"n,omitempty"`     // task count, needed by increasing/decreasing
	Times []float64 `json:"times,omitempty"` // explicit: task i takes Times[i] seconds
}

// Build constructs the workload a Spec describes.
//
//	constant:   P1 = task time
//	uniform:    [P1, P2); P1 == P2 gives every task P1
//	increasing: from P1 to P2 over N tasks
//	decreasing: from P1 to P2 over N tasks
//	exponential: mean P1
//	normal:     mean P1, std P2
//	gamma:      shape P1, scale P2
//	bimodal:    light P1, heavy P2, P(heavy) = P3
//	explicit:   task i takes Times[i]; a nonzero N keeps the first N
//	            times, and N may not exceed len(Times)
//
// Times belong to kind explicit only. Each check is written as the
// negation of the valid range, so a NaN parameter, which fails every
// comparison, is rejected too.
func (s Spec) Build() (Workload, error) {
	if len(s.Times) > 0 && s.Kind != "explicit" {
		return nil, fmt.Errorf("workload: %s takes no times (only explicit does)", s.Kind)
	}
	switch s.Kind {
	case "constant":
		if !(s.P1 > 0) {
			return nil, fmt.Errorf("workload: constant requires positive task time, got %v", s.P1)
		}
		return NewConstant(s.P1), nil
	case "uniform":
		if !(s.P2 >= s.P1) {
			return nil, fmt.Errorf("workload: uniform requires hi >= lo, got [%v,%v)", s.P1, s.P2)
		}
		return NewUniformRandom(s.P1, s.P2), nil
	case "increasing", "decreasing":
		if s.N <= 0 {
			return nil, fmt.Errorf("workload: %s requires task count N", s.Kind)
		}
		if s.Kind == "increasing" && !(s.P2 >= s.P1) || s.Kind == "decreasing" && !(s.P2 <= s.P1) {
			return nil, fmt.Errorf("workload: %s endpoints out of order: %v -> %v", s.Kind, s.P1, s.P2)
		}
		return NewIncreasing(s.P1, s.P2, s.N), nil
	case "exponential":
		if !(s.P1 > 0) {
			return nil, fmt.Errorf("workload: exponential requires positive mean, got %v", s.P1)
		}
		return NewExponential(s.P1), nil
	case "normal":
		if !(s.P1 > 0) || !(s.P2 >= 0) {
			return nil, fmt.Errorf("workload: normal requires positive mean and non-negative std")
		}
		return NewNormal(s.P1, s.P2), nil
	case "gamma":
		if !(s.P1 > 0) || !(s.P2 > 0) {
			return nil, fmt.Errorf("workload: gamma requires positive shape and scale")
		}
		return NewGamma(s.P1, s.P2), nil
	case "bimodal":
		if !(s.P1 >= 0) || !(s.P2 >= 0) {
			return nil, fmt.Errorf("workload: bimodal requires non-negative task times, got %v and %v", s.P1, s.P2)
		}
		if !(s.P3 >= 0 && s.P3 <= 1) {
			return nil, fmt.Errorf("workload: bimodal requires P(heavy) in [0,1], got %v", s.P3)
		}
		return NewBimodal(s.P1, s.P2, s.P3), nil
	case "explicit":
		if s.N > int64(len(s.Times)) {
			return nil, fmt.Errorf("workload: explicit holds %d task times, %d tasks asked for", len(s.Times), s.N)
		}
		times := s.Times
		if s.N > 0 {
			times = times[:s.N]
		}
		return NewExplicit(times)
	default:
		return nil, fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
}

// Explicit replays a concrete list of per-task execution times — the
// "trace file or similar information" of paper §III that reproducing
// measurements of real applications requires. Chunk sums are O(1) via a
// prefix-sum table.
type Explicit struct {
	times  []float64
	prefix []float64 // prefix[i] = sum of times[0:i]
	mean   float64
	std    float64
}

// NewExplicit builds an explicit workload from per-task times. All times
// must be non-negative and finite.
func NewExplicit(times []float64) (*Explicit, error) {
	if len(times) == 0 {
		return nil, fmt.Errorf("workload: explicit workload needs at least one task")
	}
	e := &Explicit{
		times:  append([]float64(nil), times...),
		prefix: make([]float64, len(times)+1),
	}
	var sum, sum2 float64
	for i, t := range times {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("workload: task %d time %v must be non-negative and finite", i, t)
		}
		e.prefix[i+1] = e.prefix[i] + t
		sum += t
		sum2 += t * t
	}
	n := float64(len(times))
	e.mean = sum / n
	variance := sum2/n - e.mean*e.mean
	if variance < 0 {
		variance = 0
	}
	e.std = math.Sqrt(variance)
	return e, nil
}

// Len returns the number of tasks the workload describes.
func (w *Explicit) Len() int64 { return int64(len(w.times)) }

func (w *Explicit) Name() string { return "explicit" }

// Time returns task i's recorded time; out-of-range indices are zero
// (the simulators never exceed the scheduled task count).
func (w *Explicit) Time(i int64, _ *rng.Rand48) float64 {
	if i < 0 || i >= int64(len(w.times)) {
		return 0
	}
	return w.times[i]
}

// ChunkTime returns the recorded total of tasks [start, start+count) in
// O(1) using the prefix sums. Ranges are clamped to the recorded tasks.
func (w *Explicit) ChunkTime(start, count int64, _ *rng.Rand48) float64 {
	if count <= 0 {
		return 0
	}
	lo, hi := start, start+count
	if lo < 0 {
		lo = 0
	}
	if max := int64(len(w.times)); hi > max {
		hi = max
	}
	if lo >= hi {
		return 0
	}
	return w.prefix[hi] - w.prefix[lo]
}

func (w *Explicit) Mean() float64       { return w.mean }
func (w *Explicit) Std() float64        { return w.std }
func (w *Explicit) Deterministic() bool { return true }
