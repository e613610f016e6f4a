package experiment

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/campaign"
	"repro/internal/rng"
)

// smallSpec returns a fast-to-run grid for tests.
func smallSpec() HagerupSpec {
	return HagerupSpec{
		Techniques: []string{"STAT", "SS", "FAC2", "BOLD"},
		Ns:         []int64{256, 1024},
		Ps:         []int{2, 8},
		Runs:       25,
		Mu:         1,
		H:          0.5,
		Seed:       7,
	}
}

func TestValidate(t *testing.T) {
	good := smallSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := good
	bad.Runs = 0
	if err := bad.Validate(); err == nil {
		t.Error("Runs=0 accepted")
	}
	bad = good
	bad.Techniques = []string{"NOPE"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown technique accepted")
	}
	bad = good
	bad.Mu = 0
	if err := bad.Validate(); err == nil {
		t.Error("Mu=0 accepted")
	}
	bad = good
	bad.Ns = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty Ns accepted")
	}
}

func TestHagerupGridMatchesTableIII(t *testing.T) {
	g := HagerupGrid(1)
	if len(g.Ns) != 4 || g.Ns[0] != 1024 || g.Ns[3] != 524288 {
		t.Fatalf("Ns = %v", g.Ns)
	}
	if len(g.Ps) != 5 || g.Ps[0] != 2 || g.Ps[4] != 1024 {
		t.Fatalf("Ps = %v", g.Ps)
	}
	if g.Runs != 1000 || g.Mu != 1 || g.H != 0.5 {
		t.Fatalf("grid params = %+v", g)
	}
	if len(g.Techniques) != 8 {
		t.Fatalf("techniques = %v", g.Techniques)
	}
}

func TestRunHagerupSmall(t *testing.T) {
	res, err := RunHagerup(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4*2*2 {
		t.Fatalf("cells = %d, want 16", len(res.Cells))
	}
	c, err := res.Cell("SS", 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	// SS wasted time must be at least the overhead term h·n/p = 64.
	if c.Wasted.Mean < 64 {
		t.Fatalf("SS mean wasted = %v, want >= 64", c.Wasted.Mean)
	}
	if c.MeanOps != 1024 {
		t.Fatalf("SS mean ops = %v, want 1024", c.MeanOps)
	}
	if _, err := res.Cell("GSS", 1024, 8); err == nil {
		t.Error("missing cell lookup succeeded")
	}
}

// TestDeterministicAcrossParallelism: the same spec must produce
// identical means whether runs execute on 1 or many workers.
func TestDeterministicAcrossParallelism(t *testing.T) {
	s1 := smallSpec()
	s1.Runner = campaign.NewLocal(campaign.LocalConfig{Workers: 1})
	sN := smallSpec()
	sN.Runner = campaign.NewLocal(campaign.LocalConfig{Workers: 8})
	r1, err := RunHagerup(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	rN, err := RunHagerup(context.Background(), sN)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Cells {
		a, b := r1.Cells[i], rN.Cells[i]
		if a.Wasted.Mean != b.Wasted.Mean || a.Wasted.Max != b.Wasted.Max {
			t.Fatalf("cell %s/%d/%d differs across parallelism: %v vs %v",
				a.Technique, a.N, a.P, a.Wasted.Mean, b.Wasted.Mean)
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	a := smallSpec()
	b := smallSpec()
	b.Seed = 8
	ra, _ := RunHagerup(context.Background(), a)
	rb, _ := RunHagerup(context.Background(), b)
	same := true
	for i := range ra.Cells {
		if ra.Cells[i].Wasted.Mean != rb.Cells[i].Wasted.Mean {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical grids")
	}
}

func TestKeepPerRun(t *testing.T) {
	s := smallSpec()
	s.KeepPerRun = true
	res, err := RunHagerup(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := res.Cell("FAC2", 256, 2)
	if len(c.PerRun) != s.Runs {
		t.Fatalf("PerRun has %d entries, want %d", len(c.PerRun), s.Runs)
	}
	// Aggregates must match the retained raw values.
	var sum float64
	for _, v := range c.PerRun {
		sum += v
	}
	if math.Abs(sum/float64(s.Runs)-c.Wasted.Mean) > 1e-9 {
		t.Fatal("PerRun mean != summary mean")
	}
}

func TestSeries(t *testing.T) {
	res, err := RunHagerup(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ps, means, err := res.Series("STAT", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0] != 2 || ps[1] != 8 {
		t.Fatalf("ps = %v", ps)
	}
	if len(means) != 2 || means[0] <= 0 {
		t.Fatalf("means = %v", means)
	}
	if _, _, err := res.Series("STAT", 999); err == nil {
		t.Error("bogus n accepted")
	}
}

func TestOneHagerupRunErrors(t *testing.T) {
	if _, _, err := OneHagerupRun(context.Background(), "NOPE", 10, 2, 1, 0.5, rng.New(1)); err == nil {
		t.Error("unknown technique accepted")
	}
}

func TestWriteHagerupCSV(t *testing.T) {
	res, err := RunHagerup(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHagerupCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+16 {
		t.Fatalf("CSV has %d lines, want 17", len(lines))
	}
	if !strings.HasPrefix(lines[0], "technique,n,p,runs,mean_wasted_s") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "STAT,256,2,25,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestWritePerRunCSV(t *testing.T) {
	s := smallSpec()
	s.KeepPerRun = true
	res, _ := RunHagerup(context.Background(), s)
	c, _ := res.Cell("BOLD", 256, 2)
	var buf bytes.Buffer
	if err := WritePerRunCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+25 {
		t.Fatalf("per-run CSV has %d lines", len(lines))
	}
	// Without per-run data the export must fail loudly.
	res2, _ := RunHagerup(context.Background(), smallSpec())
	c2, _ := res2.Cell("BOLD", 256, 2)
	if err := WritePerRunCSV(&buf, c2); err == nil {
		t.Error("missing per-run data accepted")
	}
}

func TestTzenSpecs(t *testing.T) {
	e1 := TzenExperiment1()
	if e1.N != 100000 || e1.TaskTime != 110e-6 || len(e1.Curves) != 5 {
		t.Fatalf("experiment 1 = %+v", e1)
	}
	e2 := TzenExperiment2()
	if e2.N != 10000 || e2.TaskTime != 2e-3 {
		t.Fatalf("experiment 2 = %+v", e2)
	}
	if e2.Curves[3].Label != "GSS(5)" {
		t.Fatalf("experiment 2 curve 3 = %+v", e2.Curves[3])
	}
	// Experiment 1 must keep GSS(80) (specs must not share slices).
	if e1.Curves[3].Label != "GSS(80)" {
		t.Fatalf("experiment 1 curve 3 mutated: %+v", e1.Curves[3])
	}
}

func TestRunTzenFastPath(t *testing.T) {
	spec := TzenExperiment2()
	spec.Ps = []int{2, 8, 32}
	res, err := RunTzen(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, curve := range spec.Curves {
		pts := res.Curves[curve.Label]
		if len(pts) != 3 {
			t.Fatalf("%s has %d points", curve.Label, len(pts))
		}
		for _, pt := range pts {
			if pt.Speedup <= 0 || pt.Speedup > float64(pt.P) {
				t.Errorf("%s p=%d speedup = %v out of (0,p]", curve.Label, pt.P, pt.Speedup)
			}
		}
	}
	// TSS with 2 ms tasks should be near-linear at p=32.
	tss := res.Curves["TSS"][2]
	if tss.Speedup < 25 {
		t.Errorf("TSS speedup at p=32 = %v, want near-linear", tss.Speedup)
	}
}

func TestRunTzenMSGMatchesFast(t *testing.T) {
	fast := TzenExperiment2()
	fast.Ps = []int{8}
	full := TzenExperiment2()
	full.Ps = []int{8}
	full.UseMSG = true
	fr, err := RunTzen(context.Background(), fast)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunTzen(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	// The two backends model the master and message costs slightly
	// differently (A5); speedups must agree within 15%.
	for _, label := range []string{"TSS", "CSS", "GSS(1)"} {
		f := fr.Curves[label][0].Speedup
		m := mr.Curves[label][0].Speedup
		if math.Abs(f-m) > 0.15*math.Max(f, m) {
			t.Errorf("%s: fast %v vs msg %v", label, f, m)
		}
	}
}

func TestRunTzenValidation(t *testing.T) {
	if _, err := RunTzen(context.Background(), TzenSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestWriteTzenCSV(t *testing.T) {
	spec := TzenExperiment2()
	spec.Ps = []int{2}
	res, err := RunTzen(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTzenCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+5 {
		t.Fatalf("tzen CSV lines = %d", len(lines))
	}
}
