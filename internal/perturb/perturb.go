// Package perturb models systemic variability: fluctuating PE speeds,
// uneven start times and transient slowdowns. The paper's earlier-work
// context investigated the robustness [2] and resilience [3] of DLS
// techniques under exactly these perturbations; here they plug into
// sim.Config.Perturb and sim.Config.StartTimes.
//
// All models are deterministic functions of their inputs (plus an
// explicit rand48 stream where randomness is wanted), keeping perturbed
// experiments as reproducible as unperturbed ones.
package perturb

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Model yields a speed multiplier for worker w at time t. A multiplier of
// 1 means nominal speed; 0.5 means the PE is running at half speed.
type Model func(w int, t float64) float64

// None returns the identity model.
func None() Model {
	return func(int, float64) float64 { return 1 }
}

// Sinusoidal models periodic interference (e.g. co-scheduled daemons):
// worker w's speed oscillates around 1 with the given amplitude and
// period; each worker gets a deterministic phase shift so the fleet does
// not oscillate in lockstep. Amplitude must be in [0, 1).
func Sinusoidal(amplitude, period float64) (Model, error) {
	if amplitude < 0 || amplitude >= 1 {
		return nil, fmt.Errorf("perturb: amplitude must be in [0,1), got %v", amplitude)
	}
	if period <= 0 {
		return nil, fmt.Errorf("perturb: period must be positive, got %v", period)
	}
	return func(w int, t float64) float64 {
		phase := float64(w) * math.Phi
		return 1 + amplitude*math.Sin(2*math.Pi*t/period+phase)
	}, nil
}

// Slowdown models a step perturbation: the listed workers run at factor
// speed inside [from, to).
type Slowdown struct {
	Workers  map[int]bool
	Factor   float64
	From, To float64
}

// Steps composes step slowdowns into a model. Overlapping slowdowns on
// the same worker multiply.
func Steps(steps ...Slowdown) (Model, error) {
	for i, s := range steps {
		if s.Factor <= 0 {
			return nil, fmt.Errorf("perturb: step %d factor must be positive, got %v", i, s.Factor)
		}
		if s.To <= s.From {
			return nil, fmt.Errorf("perturb: step %d has empty interval [%v,%v)", i, s.From, s.To)
		}
	}
	return func(w int, t float64) float64 {
		f := 1.0
		for _, s := range steps {
			if t >= s.From && t < s.To && (s.Workers == nil || s.Workers[w]) {
				f *= s.Factor
			}
		}
		return f
	}, nil
}

// RandomDegradation draws, per worker, a permanent speed factor from
// [1-severity, 1]: a population of slightly mismatched PEs, the
// "heterogeneous computing systems" setting of the weighted techniques.
// The returned slice can be used directly as sim.Config.Speeds.
func RandomDegradation(r *rng.Rand48, p int, severity float64) ([]float64, error) {
	if severity < 0 || severity >= 1 {
		return nil, fmt.Errorf("perturb: severity must be in [0,1), got %v", severity)
	}
	if p <= 0 {
		return nil, fmt.Errorf("perturb: p must be positive, got %d", p)
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1 - severity*r.Erand48()
	}
	return speeds, nil
}

// UniformStartSkew draws per-worker start times uniformly from
// [0, maxSkew) — the uneven PE starting times GSS and TSS were designed
// for (paper §II). The result feeds sim.Config.StartTimes.
func UniformStartSkew(r *rng.Rand48, p int, maxSkew float64) ([]float64, error) {
	if maxSkew < 0 {
		return nil, fmt.Errorf("perturb: maxSkew must be non-negative, got %v", maxSkew)
	}
	if p <= 0 {
		return nil, fmt.Errorf("perturb: p must be positive, got %d", p)
	}
	starts := make([]float64, p)
	for i := range starts {
		starts[i] = maxSkew * r.Erand48()
	}
	return starts, nil
}

// Trace is a piecewise-constant availability trace for one worker,
// mirroring SimGrid's host availability files: Factors[i] applies from
// Times[i] (until Times[i+1], the last factor applying forever).
type Trace struct {
	Times   []float64
	Factors []float64
}

// NewTrace validates and returns a trace. Times must be strictly
// increasing and start at 0; factors must be positive.
func NewTrace(times, factors []float64) (*Trace, error) {
	if len(times) == 0 || len(times) != len(factors) {
		return nil, fmt.Errorf("perturb: trace needs equal-length non-empty times/factors")
	}
	if times[0] != 0 {
		return nil, fmt.Errorf("perturb: trace must start at time 0, got %v", times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("perturb: trace times not increasing at %d", i)
		}
	}
	for i, f := range factors {
		if f <= 0 {
			return nil, fmt.Errorf("perturb: trace factor %d must be positive, got %v", i, f)
		}
	}
	return &Trace{Times: times, Factors: factors}, nil
}

// At returns the factor in effect at time t.
func (tr *Trace) At(t float64) float64 {
	// First index with Times[i] > t; the segment before it applies.
	i := sort.SearchFloat64s(tr.Times, t)
	if i < len(tr.Times) && tr.Times[i] == t {
		return tr.Factors[i]
	}
	if i == 0 {
		return tr.Factors[0]
	}
	return tr.Factors[i-1]
}

// FromTraces builds a model from per-worker traces; workers beyond the
// slice run at nominal speed.
func FromTraces(traces []*Trace) Model {
	return func(w int, t float64) float64 {
		if w < 0 || w >= len(traces) || traces[w] == nil {
			return 1
		}
		return traces[w].At(t)
	}
}
