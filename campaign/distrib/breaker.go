// Per-node circuit breakers and the node pick. Both are
// scheduling-only machinery: they decide which node runs a shard and
// when, never what the shard computes — the bit-identical merge
// guarantee is structurally out of their reach.

package distrib

import (
	"sync"
	"time"
)

// breakerState is a circuit breaker's position.
type breakerState int32

const (
	breakerClosed   breakerState = iota // normal: traffic flows
	breakerOpen                         // tripped: traffic blocked until cooldown
	breakerHalfOpen                     // cooling: exactly one probe attempt allowed
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one node's circuit breaker: closed until `threshold`
// consecutive node-attributable failures, then open for `cooldown`,
// then half-open — a single probe attempt decides between closing
// (success) and re-opening (failure). Attempts that end without a
// verdict on node health (context cancellation, per-tenant rate
// limits, deterministic spec failures) release the probe slot without
// moving the state.
//
// Every settle call says whether its caller holds the probe. Only the
// holder frees the slot or moves a half-open or open breaker; an
// attempt admitted while the breaker was closed and settling late —
// a cancelled hedge loser, say — counts toward or resets the closed
// streak only, so it can never admit a second concurrent probe.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time      // injectable clock for tests
	onChange  func(to breakerState) // transition observer (metrics)

	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool // half-open probe slot taken
}

func newBreaker(threshold int, cooldown time.Duration, onChange func(breakerState)) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now, onChange: onChange}
}

// allow reports whether an attempt may proceed and whether it holds
// the half-open probe slot. The caller passes that probe flag to the
// settle call (success, failure or release) that ends the attempt.
func (b *breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false, false
		}
		b.set(breakerHalfOpen)
	default: // half-open
		if b.probing {
			return false, false
		}
	}
	b.probing = true
	return true, true
}

// success records a node-attributable success. The probe's success
// closes the breaker; any other resets the streak of a closed one.
func (b *breaker) success(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case probe:
		b.probing = false
		b.set(breakerClosed)
	case b.state != breakerClosed:
		return
	}
	b.fails = 0
}

// failure records a node-attributable failure. The probe's failure
// re-opens the breaker; a closed breaker opens at threshold.
func (b *breaker) failure(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case probe:
		b.probing = false
	case b.state != breakerClosed:
		return
	default:
		b.fails++
		if b.fails < b.threshold {
			return
		}
	}
	b.set(breakerOpen)
	b.openedAt = b.now()
}

// release abandons an allowed attempt without a health verdict; the
// probe's release frees the half-open slot so another attempt can try.
func (b *breaker) release(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// current returns the state for reporting.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// set transitions state under b.mu and notifies the observer.
func (b *breaker) set(to breakerState) {
	b.state = to
	if b.onChange != nil {
		b.onChange(to)
	}
}

// pick scans the fleet from startNode for the first node whose breaker
// admits traffic, and reports whether the attempt holds that node's
// half-open probe slot; the caller settles it via the breaker verdict
// calls. A draining or dead node needs no separate check: it refuses
// or fails the attempt, which rotates the shard onward and, repeated,
// opens the node's breaker.
func (c *Coordinator) pick(startNode int) (ni int, probe, ok bool) {
	n := len(c.nodes)
	for off := 0; off < n; off++ {
		ni := ((startNode+off)%n + n) % n
		if ok, probe := c.brs[ni].allow(); ok {
			return ni, probe, true
		}
	}
	return 0, false, false
}
