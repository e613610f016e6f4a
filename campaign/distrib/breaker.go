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

// allow reports whether an attempt may proceed. In half-open it also
// reserves the single probe slot: a caller that gets true and then
// abandons the attempt must call release (or settle via success /
// failure).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.set(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a node-attributable success: the breaker closes and
// the failure streak resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probing = false
	if b.state != breakerClosed {
		b.set(breakerClosed)
	}
}

// failure records a node-attributable failure. A half-open probe
// failure re-opens immediately; a closed breaker opens at threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
		b.set(breakerOpen)
		b.openedAt = b.now()
	}
}

// release abandons an allowed attempt without a health verdict,
// freeing the half-open probe slot so another attempt can try.
func (b *breaker) release() {
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
// admits traffic. A half-open breaker's probe slot is reserved by the
// pick; the caller settles it via the breaker verdict calls. A draining
// or dead node needs no separate check: it refuses or fails the
// attempt, which rotates the shard onward and, repeated, opens the
// node's breaker.
func (c *Coordinator) pick(startNode int) (int, bool) {
	n := len(c.nodes)
	for off := 0; off < n; off++ {
		ni := ((startNode+off)%n + n) % n
		if c.brs[ni].allow() {
			return ni, true
		}
	}
	return 0, false
}
