package msg

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// freeCluster builds a p-worker homogeneous cluster with the paper's
// free-network settings (§III-B) and unit host speed.
func freeCluster(t testing.TB, p int) (*platform.Platform, string, []string) {
	t.Helper()
	bw, lat := platform.FreeNetwork()
	pl, err := platform.Cluster("c", p, 1.0, bw, lat)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]string, p)
	for i := range workers {
		workers[i] = fmt.Sprintf("c-%d", i+1)
	}
	return pl, "c-0", workers
}

func newSched(t testing.TB, name string, n int64, p int) sched.Scheduler {
	t.Helper()
	s, err := sched.New(name, sched.Params{N: n, P: p, H: 0.5, Mu: 1, Sigma: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppValidation(t *testing.T) {
	pl, master, workers := freeCluster(t, 2)
	if _, err := RunApp(NewEngine(pl), AppConfig{MasterHost: master}); err == nil {
		t.Error("missing workers accepted")
	}
	if _, err := RunApp(NewEngine(pl), AppConfig{MasterHost: master, WorkerHosts: workers}); err == nil {
		t.Error("missing sched/work accepted")
	}
	if _, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost: master, WorkerHosts: workers,
		Sched: newSched(t, "SS", 10, 2), Work: workload.NewExponential(1),
	}); err == nil {
		t.Error("random workload without RNG accepted")
	}
	if _, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost: "nowhere", WorkerHosts: workers,
		Sched: newSched(t, "SS", 10, 2), Work: workload.NewConstant(1),
	}); err == nil {
		t.Error("unknown master host accepted")
	}
	if _, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost: master, WorkerHosts: []string{workers[0], "nowhere"},
		Sched: newSched(t, "SS", 10, 2), Work: workload.NewConstant(1),
	}); err == nil {
		t.Error("unknown worker host accepted")
	}
}

// negativeSched answers every request with a negative chunk, which the
// master counts as a finalization while the worker, not seeing one,
// asks again.
type negativeSched struct{ sched.Scheduler }

func (negativeSched) Next(int, float64) int64 { return -1 }

// TestAppReportsUnfinishedRun: with a chunk calculator that never
// finalizes a worker, the run ends with workers still waiting for a
// reply. RunApp must report that, as the process form's deadlock
// report does.
func TestAppReportsUnfinishedRun(t *testing.T) {
	pl, master, workers := freeCluster(t, 2)
	for name, form := range map[string]func(*Engine, AppConfig) (*AppResult, error){
		"callbacks": RunApp, "processes": runAppProcesses,
	} {
		_, err := form(NewEngine(pl), AppConfig{
			MasterHost: master, WorkerHosts: workers,
			Sched: negativeSched{newSched(t, "SS", 10, 2)}, Work: workload.NewConstant(1),
		})
		if err == nil {
			t.Errorf("%s: a run that leaves workers waiting returned no error", name)
		}
	}
}

// TestAppSTATExactMakespan: constant workload, free network — the MSG
// simulation must match the closed form (25 tasks × 2 s) to within the
// negligible network epsilon.
func TestAppSTATExactMakespan(t *testing.T) {
	pl, master, workers := freeCluster(t, 4)
	res, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost:  master,
		WorkerHosts: workers,
		Sched:       newSched(t, "STAT", 100, 4),
		Work:        workload.NewConstant(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-50) > 1e-3 {
		t.Fatalf("makespan = %v, want ≈50", res.Makespan)
	}
	var tasks int64
	for _, k := range res.TasksPerWorker {
		tasks += k
	}
	if tasks != 100 {
		t.Fatalf("tasks = %d, want 100", tasks)
	}
	if res.SchedOps != 4 {
		t.Fatalf("ops = %d, want 4", res.SchedOps)
	}
}

// TestAppMatchesFastSim cross-validates the MSG protocol against the
// Hagerup-replica simulator (internal/sim) on deterministic workloads,
// where both must produce the same makespans up to network epsilon —
// ablation A5's correctness backbone.
func TestAppMatchesFastSim(t *testing.T) {
	const n, p = 2000, 8
	for _, tech := range []string{"STAT", "SS", "GSS", "TSS", "FAC2", "CSS", "FSC"} {
		work := workload.NewConstant(0.01)

		msgSched := newSched(t, tech, n, p)
		pl, master, workers := freeCluster(t, p)
		msgRes, err := RunApp(NewEngine(pl), AppConfig{
			MasterHost: master, WorkerHosts: workers,
			Sched: msgSched, Work: work,
		})
		if err != nil {
			t.Fatalf("%s: msg: %v", tech, err)
		}

		simSched := newSched(t, tech, n, p)
		simRes, err := sim.Run(sim.Config{P: p, Sched: simSched, Work: work})
		if err != nil {
			t.Fatalf("%s: sim: %v", tech, err)
		}

		if math.Abs(msgRes.Makespan-simRes.Makespan) > 1e-3*simRes.Makespan+1e-6 {
			t.Errorf("%s: msg makespan %v != sim makespan %v", tech, msgRes.Makespan, simRes.Makespan)
		}
		if msgRes.SchedOps != simRes.SchedOps {
			t.Errorf("%s: msg ops %d != sim ops %d", tech, msgRes.SchedOps, simRes.SchedOps)
		}
	}
}

// TestAppIncreasingWorkload drives the TSS publication's increasing
// workload through the MSG stack and checks task conservation and
// positive compute on every worker.
func TestAppIncreasingWorkload(t *testing.T) {
	const n, p = 1000, 4
	pl, master, workers := freeCluster(t, p)
	res, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost: master, WorkerHosts: workers,
		Sched: newSched(t, "TSS", n, p),
		Work:  workload.NewIncreasing(0.001, 0.01, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for w, k := range res.TasksPerWorker {
		tasks += k
		if res.Compute[w] <= 0 {
			t.Errorf("worker %d computed nothing", w)
		}
	}
	if tasks != n {
		t.Fatalf("tasks = %d", tasks)
	}
}

// TestAppHeterogeneousSpeeds: with SS on a 2-speed platform, the fast
// worker should process about twice the tasks.
func TestAppHeterogeneousSpeeds(t *testing.T) {
	bw, lat := platform.FreeNetwork()
	pl, err := platform.Heterogeneous("h", []float64{2, 1}, bw, lat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost:  "h-0",
		WorkerHosts: []string{"h-1", "h-2"},
		Sched:       newSched(t, "SS", 20000, 2),
		Work:        workload.NewConstant(0.001),
		// Reference speed 1: a 0.001 s task is 0.001 flops, so the
		// speed-2 worker runs it in 0.0005 s.
		ReferenceSpeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.TasksPerWorker[0]) / float64(res.TasksPerWorker[1])
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("task ratio = %v, want ≈2", ratio)
	}
}

// TestAppMasterOverheadSerializes: charging h at the master must push the
// makespan above n·h for SS.
func TestAppMasterOverheadSerializes(t *testing.T) {
	const n, p = 200, 4
	pl, master, workers := freeCluster(t, p)
	res, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost: master, WorkerHosts: workers,
		Sched:          newSched(t, "SS", n, p),
		Work:           workload.NewConstant(0.001),
		MasterOverhead: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < n*0.01 {
		t.Fatalf("makespan %v below master floor %v", res.Makespan, n*0.01)
	}
}

// TestAppAdaptiveFeedback: AWF-C over the MSG stack must adapt its
// weights using the worker-reported chunk timings.
func TestAppAdaptiveFeedback(t *testing.T) {
	bw, lat := platform.FreeNetwork()
	pl, err := platform.Heterogeneous("h", []float64{4, 1}, bw, lat)
	if err != nil {
		t.Fatal(err)
	}
	awfc, err := sched.NewAWFC(sched.Params{N: 50000, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost:     "h-0",
		WorkerHosts:    []string{"h-1", "h-2"},
		Sched:          awfc,
		Work:           workload.NewConstant(0.001),
		ReferenceSpeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := awfc.UpdatedWeights()
	if w[0] < 1.2 || w[1] > 0.8 {
		t.Fatalf("AWF-C weights = %v, want skewed toward fast PE", w)
	}
	if res.TasksPerWorker[0] <= res.TasksPerWorker[1] {
		t.Fatalf("fast PE got %d tasks, slow got %d", res.TasksPerWorker[0], res.TasksPerWorker[1])
	}
}

// TestAppExponentialWorkload: the Hagerup workload through the MSG stack;
// statistical sanity only (tasks conserved, wasted time positive).
func TestAppExponentialWorkload(t *testing.T) {
	const n, p = 1024, 8
	pl, master, workers := freeCluster(t, p)
	res, err := RunApp(NewEngine(pl), AppConfig{
		MasterHost: master, WorkerHosts: workers,
		Sched: newSched(t, "FAC", n, p),
		Work:  workload.NewExponential(1),
		RNG:   rng.FromState(12345),
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for _, k := range res.TasksPerWorker {
		tasks += k
	}
	if tasks != n {
		t.Fatalf("tasks = %d", tasks)
	}
	if res.Makespan < float64(n)/float64(p)*0.5 {
		t.Fatalf("makespan %v implausibly small", res.Makespan)
	}
}

func BenchmarkAppSS2000x8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pl, master, workers := freeCluster(b, 8)
		s, _ := sched.New("SS", sched.Params{N: 2000, P: 8})
		_, err := RunApp(NewEngine(pl), AppConfig{
			MasterHost: master, WorkerHosts: workers,
			Sched: s, Work: workload.NewConstant(0.001),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
