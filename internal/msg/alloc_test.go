package msg

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestAppAllocationsPerOp is the MSG protocol's allocation gate: a
// master–worker run allocates its engine, worker state and results once,
// and nothing per message. An SS run on 8 workers at N = 20 000 may
// allocate at most 0.01 times more per extra scheduling operation than
// one at N = 2 000.
func TestAppAllocationsPerOp(t *testing.T) {
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(3, func() {
			pl, master, workers := freeCluster(t, 8)
			s, err := sched.New("SS", sched.Params{N: n, P: 8})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunApp(NewEngine(pl), AppConfig{
				MasterHost: master, WorkerHosts: workers,
				Sched: s, Work: workload.NewConstant(0.001),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.SchedOps != n {
				t.Fatalf("SS made %d scheduling operations, want %d", res.SchedOps, n)
			}
		})
	}
	small, large := allocs(2000), allocs(20000)
	t.Logf("allocations per run: %.0f at N=2000, %.0f at N=20000", small, large)
	if perOp := (large - small) / 18000; perOp > 0.01 {
		t.Fatalf("%.3f allocations per extra scheduling operation (N=2000: %.0f, N=20000: %.0f), want <= 0.01",
			perOp, small, large)
	}
}
