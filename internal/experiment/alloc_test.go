package experiment

import (
	"context"
	"runtime"
	"testing"
)

// TestTzenMSGBytesPerRun is the MSG path's bytes gate. One round shaped
// like the benchmark's tzen-msg rounds at their largest PE count — both
// experiments at p = 80, every curve, on the full MSG model — may
// allocate at most 50 KB per msg run. Bytes per run grow with p, so
// this is the costliest round. A run costs about 32 KB: each worker's
// state and bound steps, the engine's event heap as it grows, the
// result slices, and the run's share of the runner's platform. The
// protocol as processes with mailboxes, the form the msg tests keep as
// their reference, costs about 90 KB. The bound sits between the two,
// so a run that starts allocating per message or builds processes
// fails it.
func TestTzenMSGBytesPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("heap byte counts differ under the race detector")
	}
	const bound = 50_000
	specs := []TzenSpec{TzenExperiment1(), TzenExperiment2()}
	var runs int
	for i := range specs {
		specs[i].UseMSG = true
		specs[i].Ps = []int{80}
		runs += len(specs[i].Curves)
	}
	round := func() {
		for _, s := range specs {
			if _, err := RunTzen(context.Background(), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	t.Logf("%d B per msg run at p = 80", perRun)
	if perRun > bound {
		t.Fatalf("%d B per msg run at p = 80, want at most %d", perRun, bound)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool
