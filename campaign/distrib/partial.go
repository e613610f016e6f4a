// Incomplete results: when the fleet cannot finish a campaign, the
// coordinator stops at the first unrecoverable shard, keeps the prefix
// it already merged in the sinks, and reports exactly what is missing.

package distrib

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ShardRange identifies one undelivered contiguous window of the
// campaign's run grid: one grid point's part of a shard, in plan order.
type ShardRange struct {
	// Shard is the plan segment the window belongs to, counted from 0
	// up to the campaign's shard count. A shard that spans several grid
	// points has one window per point, all with the same Shard.
	Shard int `json:"shard"`
	// Point is the parent grid point the window belongs to.
	Point int `json:"point"`
	// RepOff and Reps delimit the replication window [RepOff,
	// RepOff+Reps) within the point.
	RepOff int `json:"rep_off"`
	Reps   int `json:"reps"`
	// Cause is the shard's own failure, or the reason it was abandoned.
	Cause string `json:"cause,omitempty"`
}

// NodeFailure is one node's condition at the time the campaign gave
// up — the per-node half of the *Incomplete report.
type NodeFailure struct {
	// Node is the index into the coordinator's fleet.
	Node int `json:"node"`
	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	// Cause is the node's most recent recorded failure, if any.
	Cause string `json:"cause,omitempty"`
}

// Incomplete is the typed error of a fleet run that cannot finish
// while its context is live: the sinks hold the byte-identical
// completed prefix of the campaign (every fully merged window, in plan
// order — exactly the bytes a healthy run would have produced first),
// and this report enumerates what is missing and why. Retrieve it from
// the returned error chain with errors.As.
//
// A window that failed mid-stream may additionally have contributed a
// correct but incomplete tail beyond CompletedRuns; such a window is
// still listed as missing, with a cause saying so.
type Incomplete struct {
	// Hash is the campaign spec's canonical hash.
	Hash string `json:"hash"`
	// CompletedRuns counts runs delivered by fully merged windows;
	// TotalRuns is the campaign's full grid size.
	CompletedRuns int64 `json:"completed_runs"`
	TotalRuns     int64 `json:"total_runs"`
	// Missing lists every undelivered window, in plan order.
	Missing []ShardRange `json:"missing"`
	// Nodes describes the fleet's condition at give-up time.
	Nodes []NodeFailure `json:"nodes"`
}

// Error implements error.
func (e *Incomplete) Error() string {
	var b strings.Builder
	shards := 0
	for i, m := range e.Missing {
		if i == 0 || m.Shard != e.Missing[i-1].Shard {
			shards++
		}
	}
	fmt.Fprintf(&b, "distrib: incomplete campaign %s: %d/%d runs completed, %d shard(s) missing",
		shortHash(e.Hash), e.CompletedRuns, e.TotalRuns, shards)
	if len(e.Missing) > 0 && e.Missing[0].Cause != "" {
		fmt.Fprintf(&b, " (first: %s)", e.Missing[0].Cause)
	}
	return b.String()
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// incomplete assembles the *Incomplete report once every dispatcher
// has returned: pieces before failedAt were fully merged; failedAt and
// everything after are missing. A later piece that failed on its own
// keeps its own error; one that the give-up cancelled, or that
// completed but was never merged, reads as abandoned. While the
// caller's context is live only the give-up cancels a piece, so a
// cancellation error marks the pieces it stopped.
func (c *Coordinator) incomplete(hash string, pieces []piece, failedAt int, f *fanout, streamErr error) *Incomplete {
	inc := &Incomplete{Hash: hash}
	for i, p := range pieces {
		inc.TotalRuns += int64(p.reps)
		if i < failedAt {
			inc.CompletedRuns += int64(p.reps)
			continue
		}
		sr := ShardRange{Shard: p.shard, Point: p.point, RepOff: p.repOff, Reps: p.reps}
		switch err := f.errs[i]; {
		case i == failedAt && streamErr != nil:
			sr.Cause = fmt.Sprintf("stream failed mid-shard: %v", streamErr)
		case i == failedAt, err != nil && !errors.Is(err, context.Canceled):
			sr.Cause = err.Error()
		default:
			sr.Cause = fmt.Sprintf("abandoned after %v failed", pieces[failedAt])
		}
		inc.Missing = append(inc.Missing, sr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for ni := range c.nodes {
		inc.Nodes = append(inc.Nodes, NodeFailure{Node: ni, Breaker: c.brs[ni].current().String(), Cause: c.lastErr[ni]})
	}
	return inc
}
