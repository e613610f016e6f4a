package msg

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// resilientSetup builds a free-network cluster plus scheduler/workload.
func resilientSetup(t *testing.T, tech string, n int64, p int) (*Engine, ResilientConfig) {
	t.Helper()
	pl, master, workers := freeCluster(t, p)
	s, w, err := buildResilientSched(tech, n, p, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(pl), ResilientConfig{
		AppConfig: AppConfig{
			MasterHost:     master,
			WorkerHosts:    workers,
			Sched:          s,
			Work:           w,
			ReferenceSpeed: 1,
		},
	}
}

func TestResilientNoFailuresMatchesPlain(t *testing.T) {
	const n, p = 2000, 4
	e, cfg := resilientSetup(t, "FAC2", n, p)
	res, err := RunResilientApp(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != n {
		t.Fatalf("completed %d, want %d", res.TasksCompleted, n)
	}
	if res.FailuresSeen != 0 || res.TasksReassigned != 0 || res.TasksDuplicated != 0 {
		t.Fatalf("phantom failures: %+v", res)
	}
	// Sanity: roughly the ideal makespan (n/p tasks × 0.01 s).
	ideal := float64(n) / float64(p) * 0.01
	if res.Makespan < ideal || res.Makespan > 1.5*ideal {
		t.Fatalf("makespan %v, ideal %v", res.Makespan, ideal)
	}
}

func TestResilientSingleFailureRecovers(t *testing.T) {
	const n, p = 2000, 4
	e, cfg := resilientSetup(t, "FAC2", n, p)
	cfg.Failures = []Failure{{Worker: 1, AfterChunks: 2}}
	res, err := RunResilientApp(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != n {
		t.Fatalf("completed %d of %d despite recovery", res.TasksCompleted, n)
	}
	if res.FailuresSeen != 1 {
		t.Fatalf("FailuresSeen = %d, want 1", res.FailuresSeen)
	}
	if res.TasksReassigned == 0 {
		t.Fatal("no tasks reassigned")
	}
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != 1 {
		t.Fatalf("DeadWorkers = %v", res.DeadWorkers)
	}
	// The dead worker's recorded work stops after one completed chunk.
	if res.TasksPerWorker[1] == 0 {
		t.Fatal("worker 1 completed nothing before dying (should finish chunk 1)")
	}
}

func TestResilientMultipleFailures(t *testing.T) {
	const n, p = 3000, 6
	e, cfg := resilientSetup(t, "GSS", n, p)
	cfg.Failures = []Failure{
		{Worker: 0, AfterChunks: 1},
		{Worker: 3, AfterChunks: 2},
		{Worker: 5, AfterChunks: 1},
	}
	res, err := RunResilientApp(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != n {
		t.Fatalf("completed %d of %d", res.TasksCompleted, n)
	}
	if res.FailuresSeen != 3 {
		t.Fatalf("FailuresSeen = %d, want 3", res.FailuresSeen)
	}
	if len(res.DeadWorkers) != 3 {
		t.Fatalf("DeadWorkers = %v", res.DeadWorkers)
	}
}

func TestResilientFailedWorkIsRedone(t *testing.T) {
	// With STAT, each worker gets exactly one huge chunk; killing worker 0
	// during it forces the whole chunk to be redone elsewhere.
	const n, p = 400, 4
	e, cfg := resilientSetup(t, "STAT", n, p)
	cfg.Failures = []Failure{{Worker: 0, AfterChunks: 1}}
	res, err := RunResilientApp(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != n {
		t.Fatalf("completed %d of %d", res.TasksCompleted, n)
	}
	if res.TasksReassigned != 100 {
		t.Fatalf("reassigned %d, want the dead worker's whole 100-task chunk", res.TasksReassigned)
	}
	if res.TasksPerWorker[0] != 0 {
		t.Fatalf("dead worker completed %d tasks, want 0", res.TasksPerWorker[0])
	}
}

func TestResilientValidation(t *testing.T) {
	const n, p = 100, 2
	e, cfg := resilientSetup(t, "FAC2", n, p)
	cfg.Failures = []Failure{{Worker: 9, AfterChunks: 1}}
	if _, err := RunResilientApp(e, cfg); err == nil {
		t.Error("out-of-range worker accepted")
	}
	e2, cfg2 := resilientSetup(t, "FAC2", n, p)
	cfg2.Failures = []Failure{{Worker: 0, AfterChunks: 0}}
	if _, err := RunResilientApp(e2, cfg2); err == nil {
		t.Error("AfterChunks=0 accepted")
	}
	e3, cfg3 := resilientSetup(t, "FAC2", n, p)
	cfg3.Failures = []Failure{{Worker: 0, AfterChunks: 1}, {Worker: 1, AfterChunks: 1}}
	if _, err := RunResilientApp(e3, cfg3); err == nil {
		t.Error("killing all workers accepted")
	}
}

func TestResilientRejectsRandomWorkload(t *testing.T) {
	pl, master, workers := freeCluster(t, 2)
	s, _, err := buildResilientSched("FAC2", 100, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ResilientConfig{AppConfig: AppConfig{
		MasterHost: master, WorkerHosts: workers,
		Sched: s, Work: workload.NewExponential(1),
	}}
	if _, err := RunResilientApp(NewEngine(pl), cfg); err == nil {
		t.Error("random workload accepted")
	}
}

// TestResilientSimultaneousDeadlinesDeterministic: when two workers'
// deadlines expire in the same check, their ranges must be requeued in
// worker order, so which idle worker receives which range never
// depends on map iteration order. Here workers 0 and 1 die during
// first chunks of 25 and 19 tasks that both take 19 s, so both
// deadlines fall at the same instant.
func TestResilientSimultaneousDeadlinesDeterministic(t *testing.T) {
	const n, p = 100, 4
	times := make([]float64, n)
	for i := range times {
		times[i] = 1
		if i < 25 {
			times[i] = 0.76
		}
	}
	work, err := workload.NewExplicit(times)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[p]int64]int{}
	for i := 0; i < 100; i++ {
		pl, master, workers := freeCluster(t, p)
		s, err := sched.New("GSS", sched.Params{N: n, P: p, Mu: work.Mean()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunResilientApp(NewEngine(pl), ResilientConfig{
			AppConfig: AppConfig{
				MasterHost: master, WorkerHosts: workers,
				Sched: s, Work: work, ReferenceSpeed: 1,
			},
			Failures: []Failure{{Worker: 0, AfterChunks: 1}, {Worker: 1, AfterChunks: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		seen[[p]int64(res.TasksPerWorker)]++
	}
	if len(seen) != 1 {
		t.Fatalf("100 identical runs gave %d different task splits: %v", len(seen), seen)
	}
	for got := range seen {
		if want := [p]int64{0, 0, 53, 47}; got != want {
			t.Fatalf("TasksPerWorker = %v, want %v", got, want)
		}
	}
}
