package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// summaryDigestAtScale pins every bit of the aggregates of a campaign
// whose points summarize 20 000 replications each. The fixed digests
// elsewhere summarize three to six runs per point, so they cannot tell
// how metrics.Quantile orders a large input; this one holds every
// Median, and every other Summary field, of a large point to fixed bits.
const summaryDigestAtScale = "871f704cff82ace239223d23370a74160c9ef20ce70aa1047ba38c68e071f6cb"

// TestSummaryDigestAtScale hashes the IEEE-754 bits of every Summary
// field of Wasted, Makespan and Speedup, and MeanOps, of {FAC2, GSS} ×
// n = 256 × p = 4 at 20 000 replications on two workers.
func TestSummaryDigestAtScale(t *testing.T) {
	spec := CampaignSpec{
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{256},
		Ps:           []int{4},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 20000,
		Seed:         1,
	}
	res, err := spec.Execute(context.Background(), ExecConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	summary := func(s metrics.Summary) {
		put(uint64(s.N))
		for _, v := range []float64{s.Mean, s.Std, s.Min, s.Max, s.Median} {
			put(math.Float64bits(v))
		}
	}
	for _, a := range res.Aggregates {
		summary(a.Wasted)
		summary(a.Makespan)
		summary(a.Speedup)
		put(math.Float64bits(a.MeanOps))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != summaryDigestAtScale {
		t.Errorf("aggregate digest %s, want %s", got, summaryDigestAtScale)
	}
}
