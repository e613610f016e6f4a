package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// countingBackend delegates to the sim backend while counting Run calls —
// the instrument behind the cache acceptance test: a repeated campaign
// served from the cache must perform zero backend runs.
type countingBackend struct {
	calls atomic.Int64
}

func (b *countingBackend) Name() string { return "counting" }

func (b *countingBackend) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	b.calls.Add(1)
	be, err := New("sim")
	if err != nil {
		return nil, err
	}
	return be.Run(ctx, spec)
}

// NewRunner returns the backend itself: its Run is safe for concurrent
// use and keeps no per-point state.
func (b *countingBackend) NewRunner(RunSpec) (Runner, error) { return b, nil }

func (b *countingBackend) Rebind(RunSpec) error { return nil }

var counting = &countingBackend{}

func init() { Register(counting) }

func countingSpec() CampaignSpec {
	return CampaignSpec{
		Backend:      "counting",
		Techniques:   []string{"FAC2", "SS"},
		Ns:           []int64{256},
		Ps:           []int{2, 4},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 4,
		Seed:         99,
	}
}

// TestStreamingBitIdenticalToBufferedPath is the pipeline's core
// guarantee: aggregates assembled from the streaming event order are
// bit-identical to buffering every per-run value and summarizing the
// slice (the pre-pipeline path), for a fixed seed and any worker count.
func TestStreamingBitIdenticalToBufferedPath(t *testing.T) {
	spec := testSpec()
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}

	// Buffered reference: collect every run's metrics serially in
	// replication order, then summarize the slices.
	be, err := New("sim")
	if err != nil {
		t.Fatal(err)
	}
	seedFor := spec.seedFunc(points)
	wasted := make([][]float64, len(points))
	makespan := make([][]float64, len(points))
	for pi, pt := range points {
		for rep := 0; rep < spec.Replications; rep++ {
			run := pt
			run.RNGState = seedFor(pi, rep)
			res, err := be.Run(context.Background(), run)
			if err != nil {
				t.Fatal(err)
			}
			m := pointMetrics(run, res)
			wasted[pi] = append(wasted[pi], m.Wasted)
			makespan[pi] = append(makespan[pi], m.Makespan)
		}
	}

	for _, workers := range []int{1, 3, 8} {
		res, err := spec.Execute(context.Background(), ExecConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for pi := range points {
			if got, want := res.Aggregates[pi].Wasted, metrics.Summarize(wasted[pi]); got != want {
				t.Fatalf("workers=%d point %d: streaming wasted %+v != buffered %+v", workers, pi, got, want)
			}
			if got, want := res.Aggregates[pi].Makespan, metrics.Summarize(makespan[pi]); got != want {
				t.Fatalf("workers=%d point %d: streaming makespan %+v != buffered %+v", workers, pi, got, want)
			}
		}
	}
}

// TestCacheServesRepeatWithZeroBackendRuns is the cache acceptance
// criterion: a repeated campaign with the same spec performs zero backend
// Run calls and returns bit-identical aggregates.
func TestCacheServesRepeatWithZeroBackendRuns(t *testing.T) {
	spec := countingSpec()
	store := cache.NewMemory()

	before := counting.calls.Load()
	first, err := spec.Execute(context.Background(), ExecConfig{Cache: store, KeepPerRun: true})
	if err != nil {
		t.Fatal(err)
	}
	liveRuns := counting.calls.Load() - before
	wantRuns := int64(len(spec.Techniques) * len(spec.Ps) * spec.Replications)
	if liveRuns != wantRuns {
		t.Fatalf("first execution performed %d backend runs, want %d", liveRuns, wantRuns)
	}

	before = counting.calls.Load()
	second, err := spec.Execute(context.Background(), ExecConfig{Cache: store, KeepPerRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if cachedRuns := counting.calls.Load() - before; cachedRuns != 0 {
		t.Fatalf("cached execution performed %d backend runs, want 0", cachedRuns)
	}

	if len(first.Aggregates) != len(second.Aggregates) {
		t.Fatal("aggregate counts differ between live and cached execution")
	}
	for i := range first.Aggregates {
		a, b := first.Aggregates[i], second.Aggregates[i]
		if a.Wasted != b.Wasted || a.Makespan != b.Makespan || a.Speedup != b.Speedup || a.MeanOps != b.MeanOps {
			t.Fatalf("point %d: cached aggregate differs from live", i)
		}
		if len(a.PerRun) != len(b.PerRun) {
			t.Fatalf("point %d: per-run lengths differ", i)
		}
		for r := range a.PerRun {
			if a.PerRun[r] != b.PerRun[r] {
				t.Fatalf("point %d run %d: cached per-run metrics differ from live", i, r)
			}
		}
	}
	if first.Overall != second.Overall {
		t.Fatal("cached overall roll-up differs from live")
	}
}

// TestCacheReplayFeedsSinksIdentically verifies the replay path delivers
// the exact event stream a live execution does: the streamed CSV bytes of
// a cache hit equal those of the original run.
func TestCacheReplayFeedsSinksIdentically(t *testing.T) {
	spec := countingSpec()
	store := cache.NewMemory()

	var live bytes.Buffer
	if _, err := spec.Execute(context.Background(), ExecConfig{Cache: store, Sinks: []Sink{NewCSVSink(&live)}}); err != nil {
		t.Fatal(err)
	}
	var replayed bytes.Buffer
	before := counting.calls.Load()
	if _, err := spec.Execute(context.Background(), ExecConfig{Cache: store, Sinks: []Sink{NewCSVSink(&replayed)}}); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != before {
		t.Fatal("replay performed backend runs")
	}
	if live.String() != replayed.String() {
		t.Fatalf("replayed CSV differs from live:\nlive:\n%s\nreplayed:\n%s", live.String(), replayed.String())
	}
	if rows := strings.Count(live.String(), "\n"); rows != 1+len(spec.Techniques)*len(spec.Ps)*spec.Replications {
		t.Fatalf("CSV has %d rows", rows)
	}
}

// TestCacheCorruptEntryFallsBackToLiveRun: an undecodable, mismatched
// or foreign-format cache entry must demote to a miss, not fail the
// campaign — including a well-formed version-1 JSON entry of an earlier
// build, which this build no longer reads.
func TestCacheCorruptEntryFallsBackToLiveRun(t *testing.T) {
	spec := countingSpec()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	perRun := make([][]RunMetrics, len(points))
	for pi := range perRun {
		perRun[pi] = make([]RunMetrics, spec.Replications)
		for rep := range perRun[pi] {
			perRun[pi][rep] = RunMetrics{Wasted: 1.5, Makespan: 300, Speedup: 2, SchedOps: 40}
		}
	}
	v1, err := json.Marshal(map[string]any{
		"version": 1, "hash": hash, "points": len(points),
		"replications": spec.Replications, "per_run": perRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, entry := range map[string][]byte{
		"not json":  []byte("{not json"),
		"version 1": v1,
	} {
		t.Run(name, func(t *testing.T) {
			store := cache.NewMemory()
			if err := store.Put(context.Background(), hash, entry); err != nil {
				t.Fatal(err)
			}
			before := counting.calls.Load()
			if _, err := spec.Execute(context.Background(), ExecConfig{Cache: store}); err != nil {
				t.Fatal(err)
			}
			if counting.calls.Load() == before {
				t.Fatal("cache entry was served instead of re-running")
			}
			// The live run must have overwritten the entry.
			if got, ok, err := store.Get(context.Background(), hash); err != nil || !ok || bytes.Equal(got, entry) {
				t.Fatalf("entry not overwritten (ok=%v err=%v)", ok, err)
			}
			before = counting.calls.Load()
			if _, err := spec.Execute(context.Background(), ExecConfig{Cache: store}); err != nil {
				t.Fatal(err)
			}
			if counting.calls.Load() != before {
				t.Fatal("repaired cache entry not served")
			}
		})
	}
}

// TestAggregatorRejectsRowsFromAnotherGrid: a client-side Aggregator
// must refuse a decoded JSONL row whose technique, n or p is not its
// point's — here spec A's stream fed to the Aggregator of spec B, which
// is A with its techniques reversed.
func TestAggregatorRejectsRowsFromAnotherGrid(t *testing.T) {
	a := countingSpec()
	var buf bytes.Buffer
	if _, err := a.Execute(context.Background(), ExecConfig{Sinks: []Sink{NewJSONLSink(&buf)}}); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Techniques = []string{a.Techniques[1], a.Techniques[0]}
	agg, err := b.NewAggregator(false)
	if err != nil {
		t.Fatal(err)
	}
	var consumeErr error
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line == "" {
			continue
		}
		ev, err := DecodeJSONLEvent([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if consumeErr = agg.Consume(context.Background(), ev); consumeErr != nil {
			break
		}
	}
	if consumeErr == nil {
		t.Fatal("Aggregator folded rows of another grid")
	}
	for _, want := range []string{"point 0 replication 0", "FAC2 n=256 p=2", "SS n=256 p=2"} {
		if !strings.Contains(consumeErr.Error(), want) {
			t.Errorf("error %q does not name %q", consumeErr, want)
		}
	}
}

// TestSinkOutputDeterministicAcrossWorkers: the reorder stage must make
// streamed bytes independent of worker count and completion order.
func TestSinkOutputDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	render := func(workers int) string {
		var buf bytes.Buffer
		if _, err := spec.Execute(context.Background(), ExecConfig{Workers: workers, Sinks: []Sink{NewCSVSink(&buf)}}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := render(1)
	for _, workers := range []int{2, 5, 16} {
		if got := render(workers); got != ref {
			t.Fatalf("workers=%d: streamed CSV differs from serial", workers)
		}
	}
}

// errorSink fails on the nth Consume call.
type errorSink struct {
	n      int
	closed bool
}

func (s *errorSink) Consume(context.Context, Event) error {
	s.n--
	if s.n <= 0 {
		return fmt.Errorf("sink full")
	}
	return nil
}

func (s *errorSink) Close() error {
	s.closed = true
	return nil
}

func TestSinkErrorAbortsCampaign(t *testing.T) {
	sink := &errorSink{n: 3}
	_, err := testCampaign(5, 20).Execute(context.Background(), ExecConfig{Sinks: []Sink{sink}})
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("sink error not propagated: %v", err)
	}
	if !sink.closed {
		t.Fatal("sink not closed after abort")
	}
}

func TestJSONLSinkShape(t *testing.T) {
	var buf bytes.Buffer
	spec := countingSpec()
	if _, err := spec.Execute(context.Background(), ExecConfig{Sinks: []Sink{NewJSONLSink(&buf)}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := len(spec.Techniques) * len(spec.Ps) * spec.Replications; len(lines) != want {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), want)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"point":`) || !strings.Contains(line, `"makespan_s":`) {
			t.Fatalf("unexpected JSONL line: %s", line)
		}
	}
}

// TestSinksClosedOnEarlyValidationError: the "all sinks are closed
// before Execute returns" contract must hold on every error path,
// including rejection before any run executes.
func TestSinksClosedOnEarlyValidationError(t *testing.T) {
	for name, spec := range badCampaigns() {
		sink := &errorSink{n: 1 << 30}
		if _, err := spec.Execute(context.Background(), ExecConfig{Sinks: []Sink{sink}}); err == nil {
			t.Errorf("%s: invalid campaign accepted", name)
		}
		if !sink.closed {
			t.Errorf("%s: sink not closed on early error", name)
		}
	}
}

// gateSink blocks its first Consume until release is closed, holding
// the delivery frontier still; entered is closed once it blocks.
type gateSink struct {
	entered, release chan struct{}
	calls            int
}

func (s *gateSink) Consume(context.Context, Event) error {
	if s.calls++; s.calls == 1 {
		close(s.entered)
		<-s.release
	}
	return nil
}

func (s *gateSink) Close() error { return nil }

// TestStreamBoundedReorderUnderSkew: wildly different run durations
// across points (SS is orders of magnitude more ops than STAT) must not
// change the delivered order or the aggregates for any worker count,
// and however long a sink holds the frontier, execution runs at most
// the window ahead of it: the started runs stop at (window + workers) ×
// chunk.
func TestStreamBoundedReorderUnderSkew(t *testing.T) {
	spec := CampaignSpec{
		Techniques:   []string{"SS", "STAT"},
		Ns:           []int64{20000},
		Ps:           []int{2},
		Workload:     workload.Spec{Kind: "constant", P1: 0.001},
		H:            0.5,
		Replications: 8,
	}
	run := func(workers int) *CampaignResult {
		res, err := spec.Execute(context.Background(), ExecConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 6} {
		got := run(workers)
		for i := range ref.Aggregates {
			if got.Aggregates[i].Wasted != ref.Aggregates[i].Wasted {
				t.Fatalf("workers=%d point %d: aggregates differ under skew", workers, i)
			}
		}
	}

	const workers, chunk, reps = 2, 2, 64
	window := int64(max(4*workers, 8)) // the pipeline's window for 2 workers
	bound := (window + workers) * chunk
	gate := &gateSink{entered: make(chan struct{}), release: make(chan struct{})}
	before := counting.calls.Load()
	done := make(chan error, 1)
	gated := spec
	gated.Backend, gated.Replications = "counting", reps
	go func() {
		_, err := gated.Execute(context.Background(), ExecConfig{Workers: workers, ChunkSize: chunk, Sinks: []Sink{gate}})
		done <- err
	}()
	<-gate.entered
	// The workers fill the window behind the held frontier, then park.
	for deadline := time.Now().Add(10 * time.Second); counting.calls.Load()-before < window*chunk; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d runs started behind a held frontier, want %d", counting.calls.Load()-before, window*chunk)
		}
		time.Sleep(time.Millisecond)
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if started := counting.calls.Load() - before; started > bound {
			t.Fatalf("%d runs started while a sink held the frontier, bound is (window %d + workers %d) × chunk %d = %d",
				started, window, workers, chunk, bound)
		}
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if started := counting.calls.Load() - before; started != 2*reps {
		t.Fatalf("campaign started %d runs, want %d", started, 2*reps)
	}
}

// TestAutoChunkSize pins the automatic chunk size on the benchmark's
// shapes: about 8 chunks of every point per worker, at most 1024 runs.
func TestAutoChunkSize(t *testing.T) {
	for _, c := range []struct {
		name          string
		reps, workers int
		want          int
	}{
		{"hagerup-grid slice", 100, 2, 6},
		{"perrun-export slice", 20000, 2, 1024},
		{"fleet-ticks shard", 250, 1, 31},
		{"Table III", 1000, 2, 62},
		{"fewer runs than chunks", 5, 4, 1},
	} {
		if got := autoChunkSize(c.reps, c.workers); got != c.want {
			t.Errorf("%s: autoChunkSize(%d, %d) = %d, want %d", c.name, c.reps, c.workers, got, c.want)
		}
	}
}

// TestAutoChunkSplitsEveryPoint: the automatic chunk size is set per
// point, not from the grid, so each of 10 points × 100 replications on
// 2 workers arrives, in order, as 17 partials of at most 6 runs.
func TestAutoChunkSplitsEveryPoint(t *testing.T) {
	spec := perrunGrid(100)
	rec := &partialRecorder{}
	if _, err := spec.Execute(context.Background(), ExecConfig{Workers: 2, Sinks: []Sink{rec}}); err != nil {
		t.Fatal(err)
	}
	if rec.events != 0 {
		t.Fatalf("PartialSink got %d Consume calls", rec.events)
	}
	i := 0
	for pi := 0; pi < spec.GridPoints(); pi++ {
		rep := 0
		for n := 0; n < 17; n, i = n+1, i+1 {
			if i >= len(rec.partials) {
				t.Fatalf("point %d: stream ended after %d partials", pi, n)
			}
			p := rec.partials[i]
			if p.Point != pi || p.RepLo != rep || p.Len() < 1 || p.Len() > 6 {
				t.Fatalf("partial %d is point %d reps [%d,+%d), want point %d from rep %d with 1-6 runs",
					i, p.Point, p.RepLo, p.Len(), pi, rep)
			}
			rep += p.Len()
		}
		if rep != spec.Replications {
			t.Fatalf("point %d: 17 partials carried %d runs, want %d", pi, rep, spec.Replications)
		}
	}
	if i != len(rec.partials) {
		t.Fatalf("%d partials delivered, want %d", len(rec.partials), i)
	}
}

// exclusiveSink fails any call that begins while another call into a
// sink sharing its flag is running. It records runs in plain fields, so
// the race detector also checks that each call happens after the last.
type exclusiveSink struct {
	inCall *atomic.Bool
	runs   []int // point*1000 + replication of every run seen
}

func (s *exclusiveSink) enter(pi, repLo, n int) error {
	if !s.inCall.CompareAndSwap(false, true) {
		return fmt.Errorf("sink called while another call was running")
	}
	for i := 0; i < n; i++ {
		s.runs = append(s.runs, pi*1000+repLo+i)
	}
	runtime.Gosched() // give an overlapping call the chance to start
	s.inCall.Store(false)
	return nil
}

func (s *exclusiveSink) Consume(_ context.Context, ev Event) error {
	return s.enter(ev.Point, ev.Rep, 1)
}

func (s *exclusiveSink) Close() error { return nil }

type exclusivePartialSink struct{ exclusiveSink }

func (s *exclusivePartialSink) ConsumePartial(_ context.Context, p MetricsPartial) error {
	return s.enter(p.Point, p.RepLo, p.Len())
}

// TestSinkCallsNeverOverlap: the delivering worker changes from chunk to
// chunk, but sinks are still called one call at a time, in global order.
func TestSinkCallsNeverOverlap(t *testing.T) {
	const reps = 50
	var inCall atomic.Bool
	ordered := &exclusiveSink{inCall: &inCall}
	partial := &exclusivePartialSink{exclusiveSink{inCall: &inCall}}
	spec := testCampaign(1, reps)
	spec.Techniques = []string{"FAC2", "GSS", "TSS", "BOLD"}
	points := spec.GridPoints()
	if _, err := spec.Execute(context.Background(), ExecConfig{Workers: 4, ChunkSize: 1, Sinks: []Sink{ordered, partial}}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*exclusiveSink{ordered, &partial.exclusiveSink} {
		if len(s.runs) != points*reps {
			t.Fatalf("sink saw %d runs, want %d", len(s.runs), points*reps)
		}
		for i, r := range s.runs {
			if want := i/reps*1000 + i%reps; r != want {
				t.Fatalf("run %d delivered as %d, want %d", i, r, want)
			}
		}
	}
}

// failingStore errors on Get — a broken cache must close sinks too.
type failingStore struct{}

func (failingStore) Get(context.Context, string) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("cache broken")
}
func (failingStore) Put(context.Context, string, []byte) error { return fmt.Errorf("cache broken") }

// TestExecuteClosesSinksOnEarlyError: Execute error paths before the
// stream starts (invalid spec, failing cache) still close every sink.
func TestExecuteClosesSinksOnEarlyError(t *testing.T) {
	bad := countingSpec()
	bad.Replications = 0
	sink := &errorSink{n: 1 << 30}
	if _, err := bad.Execute(context.Background(), ExecConfig{Sinks: []Sink{sink}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if !sink.closed {
		t.Fatal("sink not closed on spec validation error")
	}

	sink = &errorSink{n: 1 << 30}
	if _, err := countingSpec().Execute(context.Background(), ExecConfig{Cache: failingStore{}, Sinks: []Sink{sink}}); err == nil {
		t.Fatal("failing cache Get not propagated")
	}
	if !sink.closed {
		t.Fatal("sink not closed on cache error")
	}
}
