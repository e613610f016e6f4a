package main

import (
	"math"
	"runtime"
	"time"
)

// The yardstick is a fixed amount of work the benchmark times between
// rounds, so that a round's time can be reported relative to the speed
// the host gave this process at that moment. On a shared host that speed
// drifts by 30 % or more over seconds to minutes, and whole runs shift
// with it; a round's time over the yardstick time around it does not.
//
// It mixes the kinds of work the workloads do — integer arithmetic on a
// small table, allocating and walking pointer trees (allocator and
// garbage collector), and self-scheduling simulations over an event heap
// with logarithms — and uses none of the repository's code, so no change
// to the repository moves it. Changing it moves every wall_rel baseline:
// a change to this file is a change of the benchmark.
//
// It runs on one goroutine. That tracks a host that slows every CPU of
// the machine alike, which is what this benchmark's host does. It does
// not track a competing process on the same machine, which takes a CPU
// from a two-worker round but not from the yardstick: one busy loop
// beside hagerup-grid raised its wall_rel by 24 %. Run nothing else
// alongside the benchmark.

// yardstick runs the work once and returns how long it took and how many
// heap bytes it allocated, which the window's allocation count leaves
// out.
func yardstick() (seconds float64, alloc uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	for i := 0; i < 12; i++ {
		if i < 8 {
			yardSink += yardTable()
		}
		if i < 6 {
			yardSink += yardTree()
		}
		yardSink += yardHeap()
	}
	seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	return seconds, ms.TotalAlloc - alloc0
}

// yardSink keeps the compiler from discarding the work.
var yardSink uint64

// xorshift is Marsaglia's 64-bit xorshift generator.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// yardTable scatters a million xorshift values over a 64 KiB table.
func yardTable() uint64 {
	table := make([]uint64, 1<<13)
	x := uint64(1)
	for i := 0; i < 1_000_000; i++ {
		x = xorshift(x)
		table[x&(1<<13-1)] += x
	}
	return table[3]
}

type yardNode struct {
	left, right *yardNode
	value       [4]float64
}

func yardBuild(depth int) *yardNode {
	n := &yardNode{}
	if depth > 0 {
		n.left, n.right = yardBuild(depth-1), yardBuild(depth-1)
		n.value[0] = float64(depth)
	}
	return n
}

func yardWalk(n *yardNode) float64 {
	if n == nil {
		return 0
	}
	return n.value[0] + yardWalk(n.left) + yardWalk(n.right)
}

// yardTree builds a complete binary tree of 65 535 nodes and walks it.
func yardTree() uint64 { return uint64(yardWalk(yardBuild(15))) }

// yardHeap simulates 64 workers self-scheduling 200 000 exponential
// tasks in chunks of remaining/128.
func yardHeap() uint64 {
	const p = 64
	x := uint64(88172645463325252)
	h := eventHeap{t: make([]float64, 0, p), w: make([]int, 0, p)}
	for w := 0; w < p; w++ {
		h.push(0, w)
	}
	var now float64
	for remaining := 200_000; remaining > 0; {
		t, w := h.pop()
		now = t
		c := max(1, remaining/(2*p))
		remaining -= c
		d := 0.0
		for i := 0; i < c; i++ {
			x = xorshift(x)
			d -= math.Log(1 - float64(x>>11)/(1<<53))
		}
		h.push(now+d+0.5, w)
	}
	return uint64(now)
}

// eventHeap is a binary min-heap of (time, worker) events.
type eventHeap struct {
	t []float64
	w []int
}

func (h *eventHeap) push(t float64, w int) {
	h.t, h.w = append(h.t, t), append(h.w, w)
	for i := len(h.t) - 1; i > 0; {
		j := (i - 1) / 2
		if h.t[j] <= h.t[i] {
			break
		}
		h.swap(i, j)
		i = j
	}
}

func (h *eventHeap) pop() (float64, int) {
	t, w := h.t[0], h.w[0]
	n := len(h.t) - 1
	h.swap(0, n)
	h.t, h.w = h.t[:n], h.w[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h.t[l] < h.t[m] {
			m = l
		}
		if r := 2*i + 2; r < n && h.t[r] < h.t[m] {
			m = r
		}
		if m == i {
			break
		}
		h.swap(i, m)
		i = m
	}
	return t, w
}

func (h *eventHeap) swap(i, j int) {
	h.t[i], h.t[j] = h.t[j], h.t[i]
	h.w[i], h.w[j] = h.w[j], h.w[i]
}
