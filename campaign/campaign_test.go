package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/campaign"
	"repro/client"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/testutil"
)

var gate = testutil.NewGateBackend("campaign-gate")

func init() { engine.Register(gate) }

func testSpec(seed uint64, reps int) campaign.Spec {
	return campaign.Spec{
		Techniques:   []string{"FAC2", "SS"},
		Ns:           []int64{128},
		Ps:           []int{2},
		Workload:     campaign.Workload{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         seed,
	}
}

// newNode starts an in-process dlsimd — a job manager behind the /v1
// HTTP service — and returns a client for it, its manager and a
// function that shuts the node down.
func newNode(t *testing.T) (*client.Client, *jobs.Manager, func()) {
	t.Helper()
	mgr := jobs.NewManager(jobs.Config{})
	srv := httptest.NewServer(service.New(mgr).Handler())
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Closing the manager first ends every status long-poll, so the
	// server has no active request left to wait for.
	return c, mgr, func() {
		mgr.Close()
		srv.Close()
	}
}

// TestExecuteFastAndGenericPathsAgree runs the same spec through the
// LocalRunner's Execute and through a node's job API (submit to an
// in-process dlsimd, then stream into a client-side Aggregator) and
// requires bit-identical aggregates — the property that makes local and
// remote execution interchangeable.
func TestExecuteFastAndGenericPathsAgree(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ctx := context.Background()
	node, _, stop := newNode(t)
	defer stop()
	spec := testSpec(31, 10)

	fast, err := campaign.Run(ctx, campaign.NewLocal(campaign.LocalConfig{}), spec)
	if err != nil {
		t.Fatal(err)
	}
	job, err := node.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := spec.NewAggregator(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Stream(ctx, job.ID, agg); err != nil {
		t.Fatal(err)
	}
	generic := agg.Result()
	if len(fast.Aggregates) != len(generic.Aggregates) {
		t.Fatalf("aggregate counts differ: %d vs %d", len(fast.Aggregates), len(generic.Aggregates))
	}
	for i := range fast.Aggregates {
		f, g := fast.Aggregates[i], generic.Aggregates[i]
		if f.Wasted != g.Wasted || f.Makespan != g.Makespan || f.Speedup != g.Speedup || f.MeanOps != g.MeanOps {
			t.Fatalf("aggregate %d differs between fast and generic paths:\nfast:    %+v\ngeneric: %+v", i, f, g)
		}
	}
	if fast.Overall != generic.Overall {
		t.Fatalf("overall roll-up differs: %+v vs %+v", fast.Overall, generic.Overall)
	}
}

// TestLocalRunnerLifecycle drives the full Runner contract on
// client.Client against an in-process dlsimd: submit, wait, stream,
// describe, dedup, cancel, and ErrClosed once the node's queue has shut
// down.
func TestLocalRunnerLifecycle(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ctx := context.Background()
	r, mgr, stop := newNode(t)
	defer stop()

	spec := testSpec(7, 5)
	job, err := r.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Hash == "" || job.Deduped {
		t.Fatalf("first submission = %+v", job)
	}
	snap, err := r.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != campaign.StateDone || snap.Completed != snap.Total {
		t.Fatalf("terminal snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.Stream(ctx, job.ID, campaign.NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2*5 {
		t.Fatalf("stream has %d lines, want %d", got, 2*5)
	}
	// Every line decodes back into an event.
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if _, err := campaign.DecodeEvent([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}

	desc, err := r.Describe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Service != "dlsimd" || desc.APIVersion != campaign.APIVersion ||
		len(desc.Techniques) == 0 || len(desc.Backends) == 0 || len(desc.SeedPolicies) != 4 {
		t.Fatalf("describe = %+v", desc)
	}

	// A gated job is held running: a second submission of its spec
	// joins it, and once it is cancelled mid-flight Stream must surface
	// the terminal state as an error.
	gate.Reset()
	defer gate.Release()
	gspec := testSpec(8, 3)
	gspec.Backend = gate.Name()
	gjob, err := r.Submit(ctx, gspec)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.Submit(ctx, gspec); err != nil || !again.Deduped || again.ID != gjob.ID {
		t.Fatalf("resubmission = %+v, %v; want it joined to %s", again, err, gjob.ID)
	}
	if err := r.Cancel(ctx, gjob.ID); err != nil {
		t.Fatal(err)
	}
	if snap, err := r.Wait(ctx, gjob.ID); err != nil || !snap.State.Terminal() {
		t.Fatalf("after cancel: snap %+v, err %v", snap, err)
	}
	if err := r.Stream(ctx, gjob.ID); err == nil {
		t.Fatal("streaming a cancelled job succeeded")
	}
	if err := r.Cancel(ctx, "no-such-job"); !errors.Is(err, campaign.ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}

	mgr.Close()
	if _, err := r.Submit(ctx, spec); !errors.Is(err, campaign.ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestDuplicateTechniqueRejected covers the spec-level validation: a
// duplicate technique would silently collapse into one map key
// downstream, so Validate must reject it loudly on every path.
func TestDuplicateTechniqueRejected(t *testing.T) {
	spec := testSpec(1, 2)
	spec.Techniques = []string{"FAC2", "SS", "FAC2"}
	err := spec.Validate()
	if err == nil || !strings.Contains(err.Error(), `duplicate technique "FAC2"`) {
		t.Fatalf("Validate = %v, want duplicate technique error", err)
	}
	if _, err := campaign.Run(context.Background(), campaign.NewLocal(campaign.LocalConfig{}), spec); err == nil ||
		!strings.Contains(err.Error(), "duplicate technique") {
		t.Fatalf("Run = %v, want duplicate technique error", err)
	}
}

// TestAggregatorRejectsTruncatedStream: the client-side fold must fail
// loudly when the stream ends early, never yield partial aggregates.
func TestAggregatorRejectsTruncatedStream(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(3, 4)
	var buf bytes.Buffer
	if _, err := campaign.NewLocal(campaign.LocalConfig{}).Execute(ctx, spec, campaign.ExecOptions{
		Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)},
	}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	agg, err := spec.NewAggregator(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[:len(lines)-1] { // drop the final event
		ev, err := campaign.DecodeEvent([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Consume(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := agg.Close(); err == nil || !strings.Contains(err.Error(), "replications") {
		t.Fatalf("Close on truncated stream = %v, want replication-count error", err)
	}
}
