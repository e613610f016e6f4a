package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// before is the order the event queue must reproduce: time under float
// comparison, ties to the lower worker id.
func before(t float64, w int, u float64, v int) bool {
	if t != u {
		return t < u
	}
	return w < v
}

var negZero = math.Copysign(0, -1)

// TestTimeKeyOrder: the unsigned order of timeKey is the float order on
// every non-NaN time, −0 and +0 are one key, and departed lies above
// +Inf.
func TestTimeKeyOrder(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		negZero, 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1),
	}
	r := rand.New(rand.NewSource(1))
	for len(vals) < 1500 {
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := timeKey(a), timeKey(b)
			if (ka < kb) != (a < b) || (ka == kb) != (a == b) {
				t.Fatalf("timeKey(%v) = %#x, timeKey(%v) = %#x: order differs from the floats'", a, ka, b, kb)
			}
		}
	}
	if k := timeKey(math.Inf(1)); k >= departed {
		t.Fatalf("timeKey(+Inf) = %#x is not below departed", k)
	}
}

// queueTimes are the time generators of the property test.
var queueTimes = []struct {
	name string
	gen  func(r *rand.Rand) float64
}{
	{"ties", func(r *rand.Rand) float64 { return float64(r.Intn(4)) / 2 }},
	{"all-equal", func(*rand.Rand) float64 { return 1.5 }},
	{"special", func(r *rand.Rand) float64 {
		special := []float64{-3.25, -1, -math.SmallestNonzeroFloat64, negZero, 0, 0.5, 7, math.Inf(1)}
		return special[r.Intn(len(special))]
	}},
	{"spread", func(r *rand.Rand) float64 { return r.NormFloat64() * 100 }},
}

// queuePs are the PE counts of the property test: every tree shape up to
// 70 leaves, and the paper's largest p next to a non-power of two.
func queuePs() []int {
	var ps []int
	for p := 1; p <= 70; p++ {
		ps = append(ps, p)
	}
	return append(ps, 1000, 1024)
}

// TestQueueDrainOrder: building the queue from start times and departing
// each winner in turn yields the workers sorted by (start time, worker
// id), each with its start time bit for bit.
func TestQueueDrainOrder(t *testing.T) {
	var q eventQueue // reused across sizes, growing and shrinking
	for _, tg := range queueTimes {
		r := rand.New(rand.NewSource(7))
		for _, p := range queuePs() {
			starts := make([]float64, p)
			for w := range starts {
				starts[w] = tg.gen(r)
			}
			want := make([]int, p)
			for w := range want {
				want[w] = w
			}
			sort.Slice(want, func(i, j int) bool {
				return before(starts[want[i]], want[i], starts[want[j]], want[j])
			})
			q.reset(p, starts)
			for i, v := range want {
				w, tm, ok := q.top()
				if !ok || w != v || math.Float64bits(tm) != math.Float64bits(starts[v]) {
					t.Fatalf("%s p=%d: pop %d = (w %d, t %v, ok %v), want (w %d, t %v)", tg.name, p, i, w, tm, ok, v, starts[v])
				}
				q.leave(w)
			}
			if w, _, ok := q.top(); ok {
				t.Fatalf("%s p=%d: worker %d still pending after every worker left", tg.name, p, w)
			}
		}
	}
}

// TestQueueMatchesReference drives the queue as the simulator does — take
// the winner, then give it a new time or depart it, in a random order —
// and checks every winner against a linear scan of the pending events.
// New times are drawn freely, not only later than the current one.
func TestQueueMatchesReference(t *testing.T) {
	var q eventQueue
	for _, tg := range queueTimes {
		r := rand.New(rand.NewSource(11))
		for _, p := range queuePs() {
			pending := make([]float64, p)
			live := make([]bool, p)
			for w := range pending {
				pending[w] = tg.gen(r)
				live[w] = true
			}
			starts := pending
			if p%5 == 0 {
				// nil start times mean all 0
				starts = nil
				clear(pending)
			}
			q.reset(p, starts)
			for step := 0; ; step++ {
				best := -1
				for v := range pending {
					if live[v] && (best < 0 || before(pending[v], v, pending[best], best)) {
						best = v
					}
				}
				w, tm, ok := q.top()
				if best < 0 {
					if ok {
						t.Fatalf("%s p=%d step %d: worker %d pending after every worker left", tg.name, p, step, w)
					}
					break
				}
				if !ok || w != best || math.Float64bits(tm) != math.Float64bits(pending[best]) {
					t.Fatalf("%s p=%d step %d: top = (w %d, t %v, ok %v), want (w %d, t %v)",
						tg.name, p, step, w, tm, ok, best, pending[best])
				}
				if r.Intn(4) == 0 {
					q.leave(w)
					live[w] = false
				} else {
					pending[w] = tg.gen(r)
					q.next(w, pending[w])
				}
			}
		}
	}
}
