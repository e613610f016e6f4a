package sim

import (
	"math"
	"math/bits"
)

// eventQueue holds every worker's pending "request work at time t"
// event and yields them in (time, worker id) order — the worker id
// tie-break keeps runs deterministic when several workers request
// simultaneously (e.g. at start). Each worker has exactly one pending
// event until it departs, so the queue is a loser (tournament) tree with
// one leaf per worker rather than a heap: a scheduling operation takes
// the winner and gives that same worker its next time, or departs it,
// and the tree replays the one fixed path from the worker's leaf to the
// root — one comparison per level and no choice between children.
//
// Node i (1 ≤ i < p) stores the loser of the match between the winners
// of its subtrees 2i and 2i+1; index p+w is worker w's leaf, which is
// implicit, so the tree takes any p, not only powers of two. node[0]
// stores the overall winner. Keys are stored inline as uint64s whose
// unsigned order is the float order of the times (timeKey), and the
// replay swaps with masks instead of branches: which side wins is data,
// so a branch would be mispredicted about half the time.
//
// Because (time, worker id) is a strict total order over the pending
// events, the pop sequence is exactly that of any other correct priority
// queue keyed the same way.
type eventQueue struct {
	node []treeNode
	// t holds each worker's pending request time bit for bit; the keys
	// cannot give it back, since −0 and +0 share one.
	t []float64
}

type treeNode struct {
	key uint64 // timeKey of the time, or departed
	w   uint64 // worker id
}

// departed is the key of a worker that left the computation: above the
// key of every time, +Inf included, so departed workers lose every match.
const departed = math.MaxUint64

// timeKey maps t to a uint64 whose unsigned order is the float order: a
// negative time's bits are negated, a non-negative one's get the sign
// bit set. −0 and +0 map alike (2⁶³), so a tie between them still falls
// to the worker id, as the float comparison t == t' demands. NaN has no
// place in the order; inputs are validated to keep it out.
func timeKey(t float64) uint64 {
	b := math.Float64bits(t)
	neg := uint64(int64(b) >> 63) // all ones for a negative time
	return (b ^ (neg | 1<<63)) - neg
}

// reset sizes the queue for p workers with the given start times (nil
// means all 0) and builds the tree in place: winners bottom-up, then
// losers top-down, so each node still sees its children's winners when
// it is turned into their loser.
func (q *eventQueue) reset(p int, starts []float64) {
	if cap(q.node) < p {
		q.node = make([]treeNode, p)
		q.t = make([]float64, p)
	}
	q.node, q.t = q.node[:p], q.t[:p]
	if starts != nil {
		copy(q.t, starts)
	} else {
		clear(q.t)
	}
	for i := p - 1; i >= 1; i-- {
		l, r := q.entrant(2*i), q.entrant(2*i+1)
		if beats(r, l) {
			l = r
		}
		q.node[i] = l
	}
	q.node[0] = q.entrant(1)
	for i := 1; i < p; i++ {
		l, r := q.entrant(2*i), q.entrant(2*i+1)
		if beats(l, r) {
			l = r
		}
		q.node[i] = l
	}
}

// entrant is what index j sends up to its parent during the build:
// worker j−p's leaf, or the winner stored at internal node j.
func (q *eventQueue) entrant(j int) treeNode {
	if p := len(q.node); j >= p {
		return treeNode{timeKey(q.t[j-p]), uint64(j - p)}
	}
	return q.node[j]
}

// beats reports whether a comes before b in (key, worker id) order.
func beats(a, b treeNode) bool {
	return a.key < b.key || a.key == b.key && a.w < b.w
}

// top returns the winner: the worker with the earliest pending request
// and its time. ok is false once every worker has departed.
func (q *eventQueue) top() (w int, t float64, ok bool) {
	win := q.node[0]
	return int(win.w), q.t[win.w], win.key != departed
}

// next gives worker w, which must be the winner, its next request time.
func (q *eventQueue) next(w int, t float64) {
	q.t[w] = t
	q.replay(w, timeKey(t))
}

// leave departs worker w, which must be the winner.
func (q *eventQueue) leave(w int) { q.replay(w, departed) }

// replay re-runs the matches on the path from worker w's leaf to the
// root after w's key changed to key. Only w's key changed and w was the
// winner, so every node on the path holds the loser of a match against
// w, and the climbing winner meets each of them once.
func (q *eventQueue) replay(w int, key uint64) {
	node := q.node
	id := uint64(w)
	for i := (len(node) + w) >> 1; i > 0; i >>= 1 {
		n := &node[i]
		// borrow is 1 exactly when (n.key, n.w) < (key, id) as a 128-bit
		// number: the stored loser wins, and the two swap places.
		_, borrow := bits.Sub64(n.w, id, 0)
		_, borrow = bits.Sub64(n.key, key, borrow)
		swap := -borrow
		dk := (n.key ^ key) & swap
		dw := (n.w ^ id) & swap
		n.key ^= dk
		n.w ^= dw
		key ^= dk
		id ^= dw
	}
	node[0] = treeNode{key, id}
}
