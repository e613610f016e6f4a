package sched

import (
	"math"
)

// AF is adaptive factoring (Banicescu & Liu, HPC Symposium 2000), the
// most general technique the paper discusses (§II): it adapts at
// execution time to both algorithmic and systemic variance by estimating,
// for each PE individually, the mean µ_i and variance σ_i² of the task
// execution times from the chunks that PE has completed. The chunk for a
// requesting PE i is
//
//	E = Σ_j 1/µ_j          (aggregate execution rate)
//	T = r / E              (balanced remaining time)
//	D = Σ_j σ_j²/µ_j
//	K_i = (D + 2T − √(D² + 4·D·T)) / (2·µ_i)
//
// With σ_j → 0 this reduces to K_i = T/µ_i, the rate-proportional fair
// share; with homogeneous estimates it recovers factoring.
//
// Estimation note: the simulators in this repository measure chunks, not
// individual tasks, so σ_i² is estimated from the spread of per-task
// chunk means m_c = T_c/K_c via Var(m_c) ≈ σ_i²/K_c, i.e. each chunk
// contributes a sample (m_c − µ_i)²·K_c. This is the standard
// chunk-granularity estimator.
type AF struct {
	base
	// Per-PE estimate state.
	timeSum []float64 // Σ chunk times
	taskSum []int64   // Σ chunk sizes
	nChunks []int64   // completed chunks
	varSum  []float64 // Σ (m_c − mean-so-far)²·K_c, running variance numerator
}

// NewAF returns an adaptive factoring scheduler. No statistical
// parameters are needed up front; everything is estimated online.
func NewAF(p Params) (*AF, error) {
	b, err := newBase("AF", p)
	if err != nil {
		return nil, err
	}
	return &AF{
		base:    b,
		timeSum: make([]float64, p.P),
		taskSum: make([]int64, p.P),
		nChunks: make([]int64, p.P),
		varSum:  make([]float64, p.P),
	}, nil
}

// Reset restores the scheduler to its post-construction state, dropping
// every per-PE estimate.
func (s *AF) Reset() {
	s.base.Reset()
	for w := 0; w < s.p; w++ {
		s.timeSum[w] = 0
		s.taskSum[w] = 0
		s.nChunks[w] = 0
		s.varSum[w] = 0
	}
}

// ready reports whether PE w has enough completed chunks (two) for stable
// estimates.
func (s *AF) ready(w int) bool { return s.nChunks[w] >= 2 }

// allReady reports whether every PE has estimates.
func (s *AF) allReady() bool {
	for w := 0; w < s.p; w++ {
		if !s.ready(w) {
			return false
		}
	}
	return true
}

func (s *AF) mu(w int) float64 {
	if s.taskSum[w] == 0 || s.timeSum[w] <= 0 {
		return 0
	}
	return s.timeSum[w] / float64(s.taskSum[w])
}

func (s *AF) sigma2(w int) float64 {
	if s.nChunks[w] < 2 {
		return 0
	}
	return s.varSum[w] / float64(s.nChunks[w]-1)
}

// Next computes the adaptive chunk for worker w, bootstrapping with half
// the fair share (the AF literature's startup rule) until per-PE
// estimates exist.
func (s *AF) Next(w int, _ float64) int64 {
	if s.remaining <= 0 {
		return 0
	}
	if w < 0 || w >= s.p || !s.allReady() {
		return s.take(ceilDiv(s.remaining, 2*int64(s.p)))
	}
	var d, e float64
	for j := 0; j < s.p; j++ {
		mj := s.mu(j)
		if mj <= 0 {
			return s.take(ceilDiv(s.remaining, 2*int64(s.p)))
		}
		e += 1 / mj
		d += s.sigma2(j) / mj
	}
	t := float64(s.remaining) / e
	mi := s.mu(w)
	k := (d + 2*t - math.Sqrt(d*d+4*d*t)) / (2 * mi)
	if cap := math.Ceil(float64(s.remaining) / float64(s.p)); k > cap {
		k = cap
	}
	return s.take(int64(math.Ceil(k)))
}

// Report updates PE w's running µ and σ² estimates with a completed
// chunk.
func (s *AF) Report(w int, chunk int64, elapsed, _ float64) {
	if w < 0 || w >= s.p || chunk <= 0 {
		return
	}
	m := elapsed / float64(chunk)
	oldMu := s.mu(w)
	s.timeSum[w] += elapsed
	s.taskSum[w] += chunk
	s.nChunks[w]++
	if s.nChunks[w] > 1 {
		newMu := s.mu(w)
		// Chunk-granularity Welford update: weight the squared deviation
		// by the chunk size to undo the 1/K variance reduction of the
		// chunk mean.
		s.varSum[w] += (m - oldMu) * (m - newMu) * float64(chunk)
		if s.varSum[w] < 0 {
			s.varSum[w] = 0
		}
	}
}

// Estimates exposes the current per-PE (µ_i, σ_i) estimates for tests
// and diagnostics.
func (s *AF) Estimates() (mu, sigma []float64) {
	mu = make([]float64, s.p)
	sigma = make([]float64, s.p)
	for w := 0; w < s.p; w++ {
		mu[w] = s.mu(w)
		sigma[w] = math.Sqrt(s.sigma2(w))
	}
	return mu, sigma
}
