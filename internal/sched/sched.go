// Package sched implements the dynamic loop scheduling (DLS) techniques
// whose SimGrid-MSG implementation the paper verifies via reproducibility,
// plus the techniques the paper lists as future verification work.
//
// Verified set (paper §IV): STAT, SS, FSC, GSS, TSS, FAC, FAC2, BOLD, and
// CSS (used by the TSS publication's experiments).
// Future-work set (paper §VI): TAP, WF, AWF, AWF-B, AWF-C, AF.
//
// A Scheduler hands out chunks of consecutive loop iterations to
// requesting processing elements (PEs). Scheduling is centralized — the
// master of the master–worker model in paper Figure 1 owns the Scheduler —
// so implementations need no internal locking; the simulators serialize
// calls by construction.
//
// Invariants every implementation must satisfy (enforced by the
// property-based tests in invariants_test.go):
//
//  1. While tasks remain, Next returns a chunk in [1, remaining].
//  2. The chunk sizes over a full execution sum to exactly N.
//  3. After exhaustion, Next returns 0 forever.
//  4. Chunks() equals the number of successful Next calls (the number of
//     scheduling operations, which Hagerup charges h seconds each).
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Params collects every quantity the techniques may need, following the
// notation of paper Table I. Unused fields are ignored by techniques that
// do not require them (paper Table II).
type Params struct {
	N int64 // number of tasks (loop iterations)
	P int   // number of PEs

	H     float64 // scheduling overhead per operation, seconds (FSC, BOLD)
	Mu    float64 // mean task execution time µ, seconds (FSC, FAC, TAP, BOLD)
	Sigma float64 // standard deviation σ of task times, seconds (FSC, FAC, TAP, BOLD)

	First int64 // first chunk size f (TSS); 0 selects ⌈n/(2p)⌉
	Last  int64 // last chunk size l (TSS); 0 selects 1

	MinChunk int64 // smallest chunk k (GSS(k)); 0 selects 1
	Chunk    int64 // fixed chunk size k (CSS); 0 selects ⌈n/p⌉

	Alpha float64 // confidence factor α (TAP); 0 selects 1.3

	Weights []float64 // relative PE weights, Σ = P (WF, AWF*); nil = equal
}

// Scheduler is the contract between the chunk calculators and the two
// simulators (internal/sim and internal/msg).
type Scheduler interface {
	// Name returns the canonical technique name (e.g. "FAC2", "GSS").
	Name() string
	// Next returns the size of the chunk assigned to worker w (0-based)
	// requesting work at simulated time now, or 0 if no tasks remain.
	Next(w int, now float64) int64
	// Report informs the scheduler that worker w finished a chunk of the
	// given size in elapsed seconds, completing at simulated time now.
	// Non-adaptive techniques ignore it.
	Report(w int, chunk int64, elapsed, now float64)
	// Remaining returns the number of unassigned tasks.
	Remaining() int64
	// Chunks returns the number of scheduling operations performed so far.
	Chunks() int64
	// Reset restores the scheduler to the state it had immediately after
	// construction, so one value serves many runs of the same parameters
	// without reallocating; the engine's runners rely on it to keep the
	// per-run hot path allocation-free. A Reset scheduler must produce
	// exactly the chunk sequence a freshly constructed one would, given
	// the same Next/Report calls (verified per technique by
	// reset_test.go).
	Reset()
}

// Resetter names the Reset method on its own, for callers that only
// reset. Every Scheduler satisfies it.
type Resetter interface {
	Reset()
}

// base carries the bookkeeping shared by all techniques.
type base struct {
	name      string
	n         int64 // total tasks
	p         int   // PEs
	remaining int64
	chunks    int64
}

func (b *base) Name() string                        { return b.name }
func (b *base) Remaining() int64                    { return b.remaining }
func (b *base) Chunks() int64                       { return b.chunks }
func (b *base) Report(int, int64, float64, float64) {}

// Reset restores the shared bookkeeping to its post-construction state.
// Techniques with extra mutable state shadow this with their own Reset
// that calls it first.
func (b *base) Reset() {
	b.remaining = b.n
	b.chunks = 0
}

// take clamps want to [1, remaining], updates the counters and returns
// the granted chunk. It returns 0 when nothing remains.
func (b *base) take(want int64) int64 {
	if b.remaining <= 0 {
		return 0
	}
	if want < 1 {
		want = 1
	}
	if want > b.remaining {
		want = b.remaining
	}
	b.remaining -= want
	b.chunks++
	return want
}

func (b *base) validate(p Params) error {
	if p.N <= 0 {
		return fmt.Errorf("sched: %s requires N > 0, got %d", b.name, p.N)
	}
	if p.P <= 0 {
		return fmt.Errorf("sched: %s requires P > 0, got %d", b.name, p.P)
	}
	return nil
}

func newBase(name string, p Params) (base, error) {
	b := base{name: name, n: p.N, p: p.P, remaining: p.N}
	if err := b.validate(p); err != nil {
		return base{}, err
	}
	return b, nil
}

// ceilDiv returns ⌈a/b⌉ for positive a, b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// Names lists the registered technique names in a stable order:
// the paper's verified set first, then the future-work extensions.
func Names() []string {
	verified := []string{"STAT", "SS", "CSS", "FSC", "GSS", "TSS", "FAC", "FAC2", "BOLD"}
	future := []string{"TAP", "WF", "AWF", "AWF-B", "AWF-C", "AF"}
	return append(verified, future...)
}

// VerifiedNames lists the eight techniques of the Hagerup experiment in
// the order the paper's figures use.
func VerifiedNames() []string {
	return []string{"STAT", "SS", "FSC", "GSS", "TSS", "FAC", "FAC2", "BOLD"}
}

// New constructs the named technique. Name matching is exact (canonical
// upper-case names as in the paper).
func New(name string, p Params) (Scheduler, error) {
	switch name {
	case "STAT":
		return NewSTAT(p)
	case "SS":
		return NewSS(p)
	case "CSS":
		return NewCSS(p)
	case "FSC":
		return NewFSC(p)
	case "GSS":
		return NewGSS(p)
	case "TSS":
		return NewTSS(p)
	case "FAC":
		return NewFAC(p)
	case "FAC2":
		return NewFAC2(p)
	case "BOLD":
		return NewBOLD(p)
	case "TAP":
		return NewTAP(p)
	case "WF":
		return NewWF(p)
	case "AWF":
		return NewAWF(p)
	case "AWF-B":
		return NewAWFB(p)
	case "AWF-C":
		return NewAWFC(p)
	case "AF":
		return NewAF(p)
	default:
		return nil, fmt.Errorf("sched: unknown technique %q (known: %v)", name, Names())
	}
}

// Param identifies one of the quantities of paper Table I.
type Param string

// Parameters of paper Table I that appear in Table II's requirement matrix.
const (
	ParamP     Param = "p"     // number of PEs
	ParamN     Param = "n"     // number of tasks
	ParamR     Param = "r"     // number of remaining tasks
	ParamH     Param = "h"     // scheduling overhead
	ParamMu    Param = "mu"    // mean of task execution times
	ParamSigma Param = "sigma" // variance/std of task execution times
	ParamF     Param = "f"     // first chunk size
	ParamL     Param = "l"     // last chunk size
	ParamM     Param = "m"     // remaining and under-execution tasks
)

// Requirements reproduces paper Table II: the parameters each DLS
// technique needs to compute its chunk sizes. SS requires none (its chunk
// is the constant 1). Techniques outside Table II follow the defining
// publications.
func Requirements(name string) ([]Param, error) {
	table := map[string][]Param{
		"STAT":  {ParamP, ParamN},
		"SS":    {},
		"CSS":   {ParamP, ParamN},
		"FSC":   {ParamP, ParamN, ParamH, ParamSigma},
		"GSS":   {ParamP, ParamR},
		"TSS":   {ParamP, ParamN, ParamF, ParamL},
		"FAC":   {ParamP, ParamR, ParamMu, ParamSigma},
		"FAC2":  {ParamP, ParamR},
		"BOLD":  {ParamP, ParamR, ParamH, ParamMu, ParamSigma, ParamM},
		"TAP":   {ParamP, ParamR, ParamMu, ParamSigma},
		"WF":    {ParamP, ParamR, ParamMu, ParamSigma},
		"AWF":   {ParamP, ParamR},
		"AWF-B": {ParamP, ParamR},
		"AWF-C": {ParamP, ParamR},
		"AF":    {ParamP, ParamR, ParamM},
	}
	req, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown technique %q", name)
	}
	out := make([]Param, len(req))
	copy(out, req)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// normWeights validates and normalizes PE weights so that Σw = p. A nil
// slice yields equal weights.
func normWeights(weights []float64, p int) ([]float64, error) {
	w := make([]float64, p)
	if weights == nil {
		for i := range w {
			w[i] = 1
		}
		return w, nil
	}
	if len(weights) != p {
		return nil, fmt.Errorf("sched: got %d weights for %d PEs", len(weights), p)
	}
	var sum float64
	for i, v := range weights {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sched: weight %d is %v, must be positive and finite", i, v)
		}
		sum += v
	}
	for i, v := range weights {
		w[i] = v * float64(p) / sum
	}
	return w, nil
}
