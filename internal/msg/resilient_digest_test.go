package msg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// resilientDigest pins every bit of the resilience example's runs, so
// the master's deadline, watchdog and control-message sizes cannot move
// without a test noticing.
const resilientDigest = "cd2d797bfaa4af0cb43252b533c34bf09d24377e187c1f56a33c501a1dc21259"

// TestResilientDigest hashes the IEEE-754 bits of every ResilientResult
// field of {STAT, GSS, TSS, FAC2, SS} × {no failure, worker 2 dying in
// its 1st chunk and worker 5 in its 3rd} at n = 4000, p = 8 and 10 ms
// tasks: the runs of examples/resilience.
func TestResilientDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	failures := [][]Failure{nil, {{Worker: 2, AfterChunks: 1}, {Worker: 5, AfterChunks: 3}}}
	for _, tech := range []string{"STAT", "GSS", "TSS", "FAC2", "SS"} {
		for _, f := range failures {
			e, cfg := resilientSetup(t, tech, 4000, 8)
			cfg.Failures = f
			res, err := RunResilientApp(e, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tech, err)
			}
			put(math.Float64bits(res.Makespan))
			put(uint64(res.TasksCompleted))
			put(uint64(res.FailuresSeen))
			put(uint64(res.TasksReassigned))
			put(uint64(res.TasksDuplicated))
			put(uint64(len(res.DeadWorkers)))
			for _, w := range res.DeadWorkers {
				put(uint64(w))
			}
			for _, c := range res.Compute {
				put(math.Float64bits(c))
			}
			for _, n := range res.TasksPerWorker {
				put(uint64(n))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != resilientDigest {
		t.Errorf("resilient digest %s, want %s", got, resilientDigest)
	}
}
