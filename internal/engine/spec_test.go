package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

func testSpec() CampaignSpec {
	return CampaignSpec{
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{256, 512},
		Ps:           []int{2, 4},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 5,
		Seed:         42,
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := testSpec()
	data, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Normalize(), spec.Normalize()) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back.Normalize(), spec.Normalize())
	}
	h1, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed across round trip: %s != %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not a hex SHA-256", h1)
	}
}

func TestSpecHashNormalization(t *testing.T) {
	base := testSpec()
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Defaults made explicit must not change the address.
	explicit := base
	explicit.Backend = DefaultBackend
	explicit.SeedPolicy = SeedPerCell
	if h, _ := explicit.Hash(); h != h0 {
		t.Errorf("explicit defaults changed the hash: %s != %s", h, h0)
	}

	// Every result-relevant field must change the address.
	mutations := map[string]func(*CampaignSpec){
		"workload n": func(s *CampaignSpec) { s.Workload.N = 9999 },
		"seed":       func(s *CampaignSpec) { s.Seed++ },
		"policy":     func(s *CampaignSpec) { s.SeedPolicy = SeedFlat },
		"backend":    func(s *CampaignSpec) { s.Backend = "des" },
		"techniques": func(s *CampaignSpec) { s.Techniques = []string{"FAC2"} },
		"ns":         func(s *CampaignSpec) { s.Ns = []int64{256} },
		"ps":         func(s *CampaignSpec) { s.Ps = []int{2} },
		"h":          func(s *CampaignSpec) { s.H = 0.25 },
		"reps":       func(s *CampaignSpec) { s.Replications = 6 },
		"workload":   func(s *CampaignSpec) { s.Workload.P1 = 2 },
	}
	for name, mut := range mutations {
		s := testSpec()
		mut(&s)
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == h0 {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	data, err := json.Marshal(testSpec().Normalize())
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"backend"`, `"backend_typo"`, 1)
	if _, err := ParseSpec([]byte(bad)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CampaignSpec)
	}{
		{"no techniques", func(s *CampaignSpec) { s.Techniques = nil }},
		{"no ns", func(s *CampaignSpec) { s.Ns = nil }},
		{"no ps", func(s *CampaignSpec) { s.Ps = nil }},
		{"reps=0", func(s *CampaignSpec) { s.Replications = 0 }},
		{"bad policy", func(s *CampaignSpec) { s.SeedPolicy = "zigzag" }},
		{"bad backend", func(s *CampaignSpec) { s.Backend = "simgrid" }},
		{"n=0", func(s *CampaignSpec) { s.Ns = []int64{0} }},
		{"p=0", func(s *CampaignSpec) { s.Ps = []int{0} }},
		{"bad technique", func(s *CampaignSpec) { s.Techniques = []string{"LIFO"} }},
		{"bad workload", func(s *CampaignSpec) { s.Workload = workload.Spec{Kind: "cauchy"} }},
		{"duplicate technique", func(s *CampaignSpec) { s.Techniques = []string{"FAC2", "SS", "FAC2"} }},
		// testSpec's ps are {2, 4}: per-PE vectors must fit every p.
		{"speeds for one p only", func(s *CampaignSpec) { s.Speeds = []float64{1, 2} }},
		{"start times for one p only", func(s *CampaignSpec) { s.StartTimes = []float64{0, 0, 1, 1} }},
		{"NaN speed", func(s *CampaignSpec) { s.Ps = []int{2}; s.Speeds = []float64{1, math.NaN()} }},
		{"zero speed", func(s *CampaignSpec) { s.Ps = []int{2}; s.Speeds = []float64{0, 1} }},
		{"infinite speed", func(s *CampaignSpec) { s.Ps = []int{2}; s.Speeds = []float64{math.Inf(1), 1} }},
		{"NaN start time", func(s *CampaignSpec) { s.Ps = []int{2}; s.StartTimes = []float64{math.NaN(), 0} }},
		{"infinite start time", func(s *CampaignSpec) { s.Ps = []int{2}; s.StartTimes = []float64{0, math.Inf(-1)} }},
		{"NaN workload parameter", func(s *CampaignSpec) { s.Workload = workload.Spec{Kind: "exponential", P1: math.NaN()} }},
		// testSpec's ns are {256, 512}: explicit times must cover both.
		{"explicit times for the first n only", func(s *CampaignSpec) {
			s.Workload = workload.Spec{Kind: "explicit", Times: make([]float64, 256)}
		}},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	explicit := testSpec()
	explicit.Workload = workload.Spec{Kind: "explicit", Times: make([]float64, 512)}
	if err := explicit.Validate(); err != nil {
		t.Fatalf("explicit times covering every n rejected: %v", err)
	}
	pe := testSpec()
	pe.Ps = []int{4}
	pe.Speeds = []float64{1, 2, 0.5, 1.5}
	pe.StartTimes = []float64{0, -1, 0.5, 0}
	if err := pe.Validate(); err != nil {
		t.Fatalf("valid per-PE vectors rejected: %v", err)
	}
}

// TestSpecPointsOrder pins the grid expansion order the cache format and
// every aggregate index depend on: n-major, then p, then technique.
func TestSpecPointsOrder(t *testing.T) {
	points, err := testSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		tech string
		n    int64
		p    int
	}
	var got []key
	for _, pt := range points {
		got = append(got, key{pt.Technique, pt.N, pt.P})
	}
	want := []key{
		{"FAC2", 256, 2}, {"GSS", 256, 2}, {"FAC2", 256, 4}, {"GSS", 256, 4},
		{"FAC2", 512, 2}, {"GSS", 512, 2}, {"FAC2", 512, 4}, {"GSS", 512, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expansion order:\n got %v\nwant %v", got, want)
	}
	for i, pt := range points {
		if pt.Work == nil {
			t.Fatalf("point %d has no workload", i)
		}
	}
}

// TestSpecFixedWorkloadN: a nonzero workload task count fixes the
// workload's shape across the whole grid — the grid's n must not
// override it (it parameterizes e.g. the slope of a ramp workload).
func TestSpecFixedWorkloadN(t *testing.T) {
	spec := CampaignSpec{
		Techniques:   []string{"STAT"},
		Ns:           []int64{1000},
		Ps:           []int{2},
		Workload:     workload.Spec{Kind: "increasing", P1: 0.001, P2: 0.002, N: 100},
		Replications: 1,
		Seed:         1,
	}
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The ramp built with N=100 assigns task 99 the peak time 0.002 and
	// keeps rising beyond it; a ramp rebuilt with the grid's N=1000
	// would assign task 99 a much smaller value.
	if got := points[0].Work.Time(99, nil); got != want.Time(99, nil) {
		t.Fatalf("grid overrode the workload's N: Time(99) = %v, want %v", got, want.Time(99, nil))
	}
	// Zero N keeps the per-point substitution.
	spec.Workload = workload.Spec{Kind: "increasing", P1: 0.001, P2: 0.002}
	points, err = spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	perPoint, err := workload.Spec{Kind: "increasing", P1: 0.001, P2: 0.002, N: 1000}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Work.Time(999, nil); got != perPoint.Time(999, nil) {
		t.Fatalf("per-point substitution broken: Time(999) = %v", got)
	}
}

// TestSpecSeedPolicies pins each policy's (point, rep) → state derivation
// to the rng primitives the layers above the engine have always used.
func TestSpecSeedPolicies(t *testing.T) {
	spec := testSpec()
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	check := func(policy string, want func(point, rep int) uint64) {
		t.Helper()
		s := spec
		s.SeedPolicy = policy
		got := s.seedFunc(points)
		for pi := range points {
			for rep := 0; rep < 3; rep++ {
				if g, w := got(pi, rep), want(pi, rep); g != w {
					t.Errorf("%s: seed(%d,%d) = %#x, want %#x", policy, pi, rep, g, w)
				}
			}
		}
	}
	check(SeedFlat, func(_, rep int) uint64 { return rng.RunSeed(spec.Seed, rep) })
	check(SeedFacade, func(_, rep int) uint64 { return rng.Mix64(rng.RunSeed(spec.Seed, rep)) })
	check(SeedShared, func(_, _ int) uint64 { return rng.Mix64(spec.Seed) })
	check(SeedPerCell, func(pi, rep int) uint64 {
		pt := points[pi]
		return rng.RunSeed(rng.CellSeed(spec.Seed, pt.Technique, pt.N, pt.P), rep)
	})
}

// TestSpecExecuteMatchesClientAggregation pins that Execute's result
// equals a client-side Aggregator fed the decoded JSONL rows of the same
// execution: the two ends of a remote result stream agree bit for bit.
func TestSpecExecuteMatchesClientAggregation(t *testing.T) {
	spec := testSpec()
	var buf bytes.Buffer
	viaExecute, err := spec.Execute(context.Background(), ExecConfig{Sinks: []Sink{NewJSONLSink(&buf)}})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := spec.NewAggregator(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		ev, err := DecodeJSONLEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Consume(context.Background(), ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	viaStream := agg.Result()
	if !reflect.DeepEqual(viaExecute.Aggregates, viaStream.Aggregates) {
		t.Fatal("Execute aggregates differ from the client-side aggregation of its stream")
	}
	if viaExecute.Overall != viaStream.Overall {
		t.Fatalf("overall roll-up differs: %+v != %+v", viaExecute.Overall, viaStream.Overall)
	}
}
