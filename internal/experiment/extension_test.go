package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestFutureWorkSpec(t *testing.T) {
	s := FutureWorkSpec(1)
	if err := s.Validate(); err != nil {
		t.Fatalf("future-work spec invalid: %v", err)
	}
	if len(s.Techniques) != 6 {
		t.Fatalf("techniques = %v", s.Techniques)
	}
	for _, tech := range []string{"TAP", "AF", "AWF-C"} {
		found := false
		for _, have := range s.Techniques {
			if have == tech {
				found = true
			}
		}
		if !found {
			t.Errorf("future-work spec missing %s", tech)
		}
	}
}

// TestFutureWorkGridRuns exercises the §VI extension end to end on a
// reduced grid: every adaptive technique completes and lands in a sane
// wasted-time range (better than SS's overhead floor would be).
func TestFutureWorkGridRuns(t *testing.T) {
	s := FutureWorkSpec(11)
	s.Ns = []int64{1024}
	s.Ps = []int{2, 8}
	s.Runs = 20
	res, err := RunHagerup(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range s.Techniques {
		for _, p := range s.Ps {
			c, err := res.Cell(tech, 1024, p)
			if err != nil {
				t.Fatal(err)
			}
			ssFloor := 0.5 * 1024 / float64(p)
			if c.Wasted.Mean <= 0 || c.Wasted.Mean >= ssFloor {
				t.Errorf("%s p=%d wasted %.3g outside (0, %g)", tech, p, c.Wasted.Mean, ssFloor)
			}
		}
	}
}

func TestGSSSweep(t *testing.T) {
	res, err := GSSSweep(context.Background(), 8192, 8, 10, 1, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ks) != 6 || res.Ks[5] != 1024 {
		t.Fatalf("Ks = %v", res.Ks)
	}
	// Larger k means at most as many scheduling operations.
	for i := 1; i < len(res.Ops); i++ {
		if res.Ops[i] > res.Ops[i-1]+1 {
			t.Errorf("ops grew with k: %v", res.Ops)
		}
	}
	// k = n/p degenerates GSS to static-like scheduling: higher wasted
	// time than small k under exponential variance.
	if res.Wasted[5] <= res.Wasted[0] {
		t.Errorf("GSS(n/p) wasted %.3g <= GSS(1) %.3g; variance should punish huge min chunks",
			res.Wasted[5], res.Wasted[0])
	}
	// Every bit of the sweep's results is pinned.
	h := newBitHash()
	for i := range res.Ks {
		h.f64(res.Wasted[i])
		h.f64(res.Ops[i])
	}
	if got, want := h.hex(), "7c3646afca1154e49c501e2b2a207bd4361c43dc1edfd0ac3b785360d838ee8d"; got != want {
		t.Errorf("sweep digest %s, want %s", got, want)
	}
	if _, err := GSSSweep(context.Background(), 0, 8, 10, 1, 0.5, 3); err == nil {
		t.Error("invalid sweep accepted")
	}
}

// TestCSSSweepOptimumNearNOverP reproduces the TSS publication's
// chunk-size study: with uniform workloads, speedup peaks near k = n/p
// ("k = I/P = 1389, we can achieve a speedup of 69.2" on 72 PEs).
func TestCSSSweepOptimumNearNOverP(t *testing.T) {
	const n, p = 100000, 72
	res, err := CSSSweep(context.Background(), n, p, 110e-6, 5e-6, 200e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep must include the publication's recommended k = n/p.
	nOverP := int64(n / p)
	idxNP := -1
	for i, k := range res.Ks {
		if k == nOverP {
			idxNP = i
		}
	}
	if idxNP < 0 {
		t.Fatalf("sweep %v does not include n/p = %d", res.Ks, nOverP)
	}
	// The publication's quantitative claim: k = n/p achieves near-ideal
	// speedup (69.2 of 72 ≈ 96%) under uniform workloads.
	if got := res.Speedups[idxNP]; got < 0.9*p {
		t.Errorf("CSS(n/p) speedup %.1f below 90%% of ideal %d", got, p)
	}
	// Tiny chunks must be visibly worse (scheduling-bound).
	if res.Speedups[0] > 0.8*res.Speedups[idxNP] {
		t.Errorf("CSS(1) speedup %.1f suspiciously close to CSS(n/p) %.1f",
			res.Speedups[0], res.Speedups[idxNP])
	}
	if _, err := CSSSweep(context.Background(), 0, 1, 1, 0, 0); err == nil {
		t.Error("invalid sweep accepted")
	}
}

// TestFutureWorkCSVExport: the future-work grid exports through the same
// raw-data path as the verified grid (paper §V applies to extensions
// too).
func TestFutureWorkCSVExport(t *testing.T) {
	s := FutureWorkSpec(5)
	s.Ns = []int64{512}
	s.Ps = []int{4}
	s.Runs = 5
	res, err := RunHagerup(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHagerupCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+6 {
		t.Fatalf("CSV lines = %d, want 7", len(lines))
	}
	for _, tech := range s.Techniques {
		if !strings.Contains(buf.String(), tech+",512,4,") {
			t.Errorf("CSV missing row for %s", tech)
		}
	}
}
