// Placement by least expected completion: the node a piece's rotation
// starts at. Like the breakers it is scheduling-only — it decides
// where a shard runs first, never what it computes.

package distrib

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

const (
	estimateWeight = 0.2              // share of the newest attempt in a node's smoothed time
	estimateMaxAge = 10 * time.Second // an estimate older than this counts as missing
)

// placer keeps, per node, a smoothed wall time of successful attempts
// (Submit through Wait) and the pieces placed there whose placement has
// not returned. A piece's rotation starts at the node with the least
// (in-flight pieces + 1) × smoothed time. Until every node has an
// estimate at most estimateMaxAge old, it starts at piece index mod
// N, the static rotation — so a fresh coordinator places its first
// campaign exactly as a static plan does, and an expired estimate
// sends placement back there until the node has run a piece again.
type placer struct {
	now func() time.Time // injectable clock for tests

	mu       sync.Mutex
	est      []float64   // seconds
	at       []time.Time // when est last moved; zero before the first success
	inflight []int
}

func newPlacer(nodes int) *placer {
	return &placer{
		now:      time.Now,
		est:      make([]float64, nodes),
		at:       make([]time.Time, nodes),
		inflight: make([]int, nodes),
	}
}

// start picks the node piece index's rotation starts at and counts the
// piece in flight there until done is called with the returned node.
// Ties keep the rotation's node.
func (p *placer) start(index int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.est)
	best := index % n
	if p.allFresh(p.now()) {
		for off := 1; off < n; off++ {
			if ni := (index + off) % n; p.cost(ni) < p.cost(best) {
				best = ni
			}
		}
	}
	p.inflight[best]++
	return best
}

// done ends a piece's placement on the node start returned for it.
func (p *placer) done(ni int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight[ni]--
}

// observe folds one successful attempt's wall time into node ni's
// estimate. Failed and cancelled attempts are never observed, so they
// can never make a node look cheap. A missing or expired estimate
// restarts from the new sample.
func (p *placer) observe(ni int, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	if p.fresh(ni, now) {
		p.est[ni] += estimateWeight * (d.Seconds() - p.est[ni])
	} else {
		p.est[ni] = d.Seconds()
	}
	p.at[ni] = now
}

// samples reports every fresh estimate for the node-attempt gauge.
func (p *placer) samples() []telemetry.Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	var out []telemetry.Sample
	for ni, v := range p.est {
		if p.fresh(ni, now) {
			out = append(out, telemetry.Sample{Values: []string{strconv.Itoa(ni)}, V: v})
		}
	}
	return out
}

func (p *placer) cost(ni int) float64 { return float64(p.inflight[ni]+1) * p.est[ni] }

func (p *placer) fresh(ni int, now time.Time) bool {
	return !p.at[ni].IsZero() && now.Sub(p.at[ni]) <= estimateMaxAge
}

func (p *placer) allFresh(now time.Time) bool {
	for ni := range p.at {
		if !p.fresh(ni, now) {
			return false
		}
	}
	return true
}
