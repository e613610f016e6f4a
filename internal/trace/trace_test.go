package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// record runs one simulation with a recorder attached.
func record(t *testing.T, tech string, n int64, p int) (*Trace, *sim.Result) {
	t.Helper()
	s, err := sched.New(tech, sched.Params{N: n, P: p, H: 0.5, Mu: 1, Sigma: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	res, err := sim.Run(sim.Config{
		P:       p,
		Sched:   s,
		Work:    workload.NewExponential(1),
		RNG:     rng.New(5),
		Observe: rec.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), res
}

func TestRecorderCapturesAllOps(t *testing.T) {
	tr, res := record(t, "FAC2", 2048, 8)
	if int64(len(tr.Events)) != res.SchedOps {
		t.Fatalf("recorded %d events, simulator reports %d ops", len(tr.Events), res.SchedOps)
	}
	if tr.Tasks() != 2048 {
		t.Fatalf("trace covers %d tasks, want 2048", tr.Tasks())
	}
	if tr.Workers() != 8 {
		t.Fatalf("trace has %d workers, want 8", tr.Workers())
	}
	if math.Abs(tr.Makespan()-res.Makespan) > 1e-9 {
		t.Fatalf("trace makespan %v != simulator %v", tr.Makespan(), res.Makespan)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &Trace{Events: []Event{
		{Worker: 0, Start: 0, Count: 5, Assigned: 0, Done: 5},
		{Worker: 1, Start: 5, Count: 5, Assigned: 0, Done: 4},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Events: []Event{{Worker: 0, Start: 0, Count: 0, Done: 1}}},              // zero count
		{Events: []Event{{Worker: -1, Start: 0, Count: 1, Done: 1}}},             // negative worker
		{Events: []Event{{Worker: 0, Start: 0, Count: 1, Assigned: 2, Done: 1}}}, // done < assigned
		{Events: []Event{ // overlapping ranges
			{Worker: 0, Start: 0, Count: 5, Done: 1},
			{Worker: 1, Start: 3, Count: 5, Done: 1},
		}},
		{Events: []Event{{Worker: 0, Start: 1, Count: math.MaxInt64, Done: 1}}},           // range end overflows
		{Events: []Event{{Worker: 0, Start: math.MaxInt64, Count: 1, Done: 1}}},           // range end overflows
		{Events: []Event{{Worker: 0, Start: 0, Count: 1, Assigned: -1, Done: 1}}},         // negative time
		{Events: []Event{{Worker: 0, Start: 0, Count: 1, Assigned: math.NaN(), Done: 1}}}, // NaN time
		{Events: []Event{{Worker: 0, Start: 0, Count: 1, Done: math.NaN()}}},              // NaN time
		{Events: []Event{{Worker: 0, Start: 0, Count: 1, Done: math.Inf(1)}}},             // infinite time
		{Events: []Event{{Worker: 0, Start: 0, Count: 1, Assigned: math.Inf(1), Done: math.Inf(1)}}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, _ := record(t, "GSS", 1000, 4)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		a, b := tr.Events[i], got.Events[i]
		if a.Worker != b.Worker || a.Start != b.Start || a.Count != b.Count {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
		if a.Assigned != b.Assigned || a.Done != b.Done {
			t.Fatalf("event %d times differ: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"not,a,trace,header,x\n",
		"worker,start,count,assigned_s,done_s\nbad,0,1,0,1\n",
		"worker,start,count,assigned_s,done_s\n0,bad,1,0,1\n",
		"worker,start,count,assigned_s,done_s\n0,0,bad,0,1\n",
		"worker,start,count,assigned_s,done_s\n0,0,1,bad,1\n",
		"worker,start,count,assigned_s,done_s\n0,0,1,0,bad\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("bad CSV %d accepted", i)
		}
	}
}

// TestReplayThroughExplicitWorkload closes the paper's §III loop:
// extract per-task times from a recorded trace, replay them through an
// Explicit workload, and verify the replayed loop conserves total work.
func TestReplayThroughExplicitWorkload(t *testing.T) {
	const n, p = 2048, 8
	tr, res := record(t, "FAC2", n, p)

	times := tr.PerTaskTimes(n)
	replay, err := workload.NewExplicit(times)
	if err != nil {
		t.Fatal(err)
	}
	// Total replayed work equals total simulated compute.
	var origCompute float64
	for _, c := range res.Compute {
		origCompute += c
	}
	if got := replay.ChunkTime(0, n, nil); math.Abs(got-origCompute) > 1e-6*origCompute {
		t.Fatalf("replayed total %v != original compute %v", got, origCompute)
	}

	// Re-run the loop under a different technique on the replayed times.
	s, err := sched.New("GSS", sched.Params{N: n, P: p})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.Run(sim.Config{P: p, Sched: s, Work: replay})
	if err != nil {
		t.Fatal(err)
	}
	var replayCompute float64
	for _, c := range res2.Compute {
		replayCompute += c
	}
	if math.Abs(replayCompute-origCompute) > 1e-6*origCompute {
		t.Fatalf("replay under GSS computed %v, want %v", replayCompute, origCompute)
	}
}

// TestPerTaskTimesBounds: only tasks below n are filled, and an event
// costs no more than the tasks it covers there, whatever its count (a
// count near 2^63 finishes at once).
func TestPerTaskTimesBounds(t *testing.T) {
	for _, c := range []struct {
		name   string
		events []Event
		want   []float64
	}{
		{"in range, out of range, uncovered", []Event{
			{Worker: 0, Start: 0, Count: 2, Assigned: 0, Done: 4},   // 2 s per task
			{Worker: 1, Start: 100, Count: 1, Assigned: 0, Done: 1}, // out of range
		}, []float64{2, 2, 0}},
		{"count past n", []Event{{Start: 1, Count: 4e9, Done: 8e9}}, []float64{0, 2, 2}},
		{"count near 2^63", []Event{{Start: 0, Count: math.MaxInt64, Done: math.MaxInt64}}, []float64{1, 1, 1}},
		{"range end wraps", []Event{{Start: 2, Count: math.MaxInt64, Done: math.MaxInt64}}, []float64{0, 0, 1}},
		{"negative start", []Event{{Start: -2, Count: 4, Done: 8}}, []float64{2, 2, 0}},
		{"non-positive counts", []Event{{Start: 0, Count: 0, Done: 1}, {Start: -1, Count: math.MinInt64, Done: 1}}, []float64{0, 0, 0}},
	} {
		tr := &Trace{Events: c.events}
		if got := tr.PerTaskTimes(3); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: times = %v, want %v", c.name, got, c.want)
		}
	}
}
