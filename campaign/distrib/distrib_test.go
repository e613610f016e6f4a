package distrib

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/campaign"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/testutil"
)

// Gated backends, one per test that needs to hold runs in flight.
var (
	gateKill   = testutil.NewGateBackend("distrib-gate-kill")
	gateWarm   = testutil.NewGateBackend("distrib-gate-warm")
	gateCancel = testutil.NewGateBackend("distrib-gate-cancel")
)

func init() {
	engine.Register(gateKill)
	engine.Register(gateWarm)
	engine.Register(gateCancel)
}

// node is one in-process dlsimd: a jobs manager behind the real /v1
// HTTP stack, reached through the real SDK — the full wire path.
type node struct {
	mgr *jobs.Manager
	srv *httptest.Server
	cli *client.Client
}

// kill simulates the process dying: the node's work is torn down and
// in-flight requests are severed. The manager closes first: that
// cancels its jobs, so no status long-poll stays parked in
// Manager.Wait — on a held job, or on one a client reconnects to after
// CloseClientConnections — while Close waits on active connections.
func (n *node) kill() {
	n.mgr.Close()
	n.srv.CloseClientConnections()
	n.srv.Close()
}

// newFleet boots n nodes sharing one content-addressed store.
func newFleet(t *testing.T, n int, store cache.Store) ([]campaign.Runner, []*node) {
	t.Helper()
	runners := make([]campaign.Runner, n)
	fleet := make([]*node, n)
	for i := 0; i < n; i++ {
		mgr := jobs.NewManager(jobs.Config{Store: store})
		srv := httptest.NewServer(service.New(mgr).Handler())
		t.Cleanup(func() { srv.Close(); mgr.Close() })
		cli, err := client.New(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		fleet[i] = &node{mgr: mgr, srv: srv, cli: cli}
		runners[i] = cli
	}
	return runners, fleet
}

func goldenSpec(policy string, reps int) campaign.Spec {
	return campaign.Spec{
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{128, 256},
		Ps:           []int{4},
		Workload:     campaign.Workload{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         20170808,
		SeedPolicy:   policy,
	}
}

// localReference runs the spec in-process and returns its JSONL bytes
// and aggregates — the bit pattern every distributed merge must
// reproduce.
func localReference(t *testing.T, spec campaign.Spec) ([]byte, *campaign.Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := campaign.NewLocal(campaign.LocalConfig{}).Execute(context.Background(), spec,
		campaign.ExecOptions{KeepPerRun: true, Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestDistributedMergeGolden is the tentpole's acceptance test: across
// shard counts {1, 2, 3, 7} and all four seed policies — with 5
// replications, so 2, 3 and 7 all split unevenly — the merged JSONL
// stream is byte-identical to a single-process run and the aggregates
// are deeply equal.
func TestDistributedMergeGolden(t *testing.T) {
	store := cache.NewMemory()
	nodes, _ := newFleet(t, 3, store)
	for _, policy := range []string{campaign.SeedPerCell, campaign.SeedFlat, campaign.SeedFacade, campaign.SeedShared} {
		spec := goldenSpec(policy, 5)
		wantJSONL, wantRes := localReference(t, spec)
		for _, shards := range []int{1, 2, 3, 7} {
			coord, err := New(nodes, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res, err := coord.Execute(context.Background(), spec,
				campaign.ExecOptions{KeepPerRun: true, Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}})
			if err != nil {
				t.Fatalf("%s/%d shards: %v", policy, shards, err)
			}
			if !bytes.Equal(buf.Bytes(), wantJSONL) {
				t.Errorf("%s/%d shards: merged JSONL differs from single-node run", policy, shards)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("%s/%d shards: aggregates differ from single-node run", policy, shards)
			}
		}
	}
}

// TestSinglePointSpecGolden covers the degenerate grid: one point, all
// sharding happens along the replication axis, and shard counts beyond
// the run count clamp instead of failing.
func TestSinglePointSpecGolden(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 5)
	spec.Techniques = []string{"FAC2"}
	spec.Ns = []int64{128}
	wantJSONL, wantRes := localReference(t, spec)
	nodes, _ := newFleet(t, 2, cache.NewMemory())
	for _, shards := range []int{1, 3, 7, 100} { // 7 and 100 exceed the 5 total runs
		coord, err := New(nodes, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res, err := coord.Execute(context.Background(), spec,
			campaign.ExecOptions{KeepPerRun: true, Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !bytes.Equal(buf.Bytes(), wantJSONL) {
			t.Errorf("%d shards: merged JSONL differs", shards)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%d shards: aggregates differ", shards)
		}
	}
}

// TestPlanPathologicalSplits pins the planner's cut points: full
// coverage in global stream order, near-equal segment sizes, and
// correct decomposition when segments straddle point boundaries.
func TestPlanPathologicalSplits(t *testing.T) {
	check := func(t *testing.T, spec campaign.Spec, shards int) []piece {
		t.Helper()
		pieces, err := plan(spec, shards)
		if err != nil {
			t.Fatal(err)
		}
		next, pt := 0, 0
		var covered int
		for i, p := range pieces {
			if p.index != i {
				t.Fatalf("piece %d carries index %d", i, p.index)
			}
			if p.point < pt || (p.point == pt && p.repOff != next) || (p.point > pt && p.repOff != 0) {
				t.Fatalf("piece %d (point %d, off %d) breaks global order (cursor point %d, rep %d)", i, p.point, p.repOff, pt, next)
			}
			pt, next = p.point, p.repOff+p.reps
			if next == spec.Replications {
				pt, next = pt+1, 0
			}
			if p.spec.RepOffset != p.repOff || p.spec.Replications != p.reps {
				t.Fatalf("piece %d sub-spec window (%d, %d) disagrees with plan (%d, %d)",
					i, p.spec.RepOffset, p.spec.Replications, p.repOff, p.reps)
			}
			covered += p.reps
		}
		if total := spec.GridPoints() * spec.Replications; covered != total {
			t.Fatalf("plan covers %d runs of %d", covered, total)
		}
		return pieces
	}

	spec := goldenSpec(campaign.SeedPerCell, 5) // 4 points × 5 reps = 20 runs
	for _, shards := range []int{1, 2, 3, 7, 19, 20, 500} {
		check(t, spec, shards)
	}
	if pieces := check(t, spec, 500); len(pieces) != 20 {
		t.Errorf("oversharded plan has %d pieces, want 20 single-run pieces", len(pieces))
	}
	// A 7-way cut of 20 runs: segments 3,3,3,3,3,3,2 — every boundary
	// lands mid-point, so segments decompose into multiple pieces.
	if pieces := check(t, spec, 7); len(pieces) <= 7 {
		t.Errorf("7-way mid-point cut produced only %d pieces", len(pieces))
	}

	single := spec
	single.Techniques = []string{"FAC2"}
	single.Ns = []int64{128}
	for _, shards := range []int{1, 3, 5, 9} {
		check(t, single, shards)
	}

	if _, err := plan(campaign.Spec{}, 2); err == nil {
		t.Error("plan accepted an invalid spec")
	}
	offset := spec
	offset.RepOffset = 2
	if _, err := plan(offset, 2); err == nil {
		t.Error("plan accepted an already-offset spec")
	}
}

// TestNodeFailureReassignment kills one node while its shards are held
// mid-run; the coordinator must reassign them to the survivors and
// still produce the bit-identical merged result.
func TestNodeFailureReassignment(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 5)
	spec.Backend = gateKill.Name()
	wantJSONL := func() []byte {
		gateKill.Release()
		defer gateKill.Reset()
		b, _ := localReference(t, spec)
		return b
	}()

	store := cache.NewMemory()
	nodes, fleet := newFleet(t, 3, store)
	coord, err := New(nodes, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		jsonl []byte
		err   error
	}
	res := make(chan outcome, 1)
	go func() {
		var buf bytes.Buffer
		_, err := coord.Execute(context.Background(), spec,
			campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}})
		res <- outcome{buf.Bytes(), err}
	}()

	// Wait until shards are actually executing, then kill node 0 with
	// its work still gated — its shards can only finish elsewhere.
	deadline := time.Now().Add(5 * time.Second)
	for gateKill.Started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no run entered the gate")
		}
		time.Sleep(time.Millisecond)
	}
	fleet[0].kill()
	gateKill.Release()

	out := <-res
	if out.err != nil {
		t.Fatalf("campaign failed despite reassignment: %v", out.err)
	}
	if !bytes.Equal(out.jsonl, wantJSONL) {
		t.Error("merged JSONL after node failure differs from single-node run")
	}
}

// TestWarmStoreResubmit: with the fleet sharing a content-addressed
// store, re-executing the same spec re-submits every shard but costs
// zero backend runs — shard idempotency via the sub-spec hash.
func TestWarmStoreResubmit(t *testing.T) {
	gateWarm.Release()
	spec := goldenSpec(campaign.SeedFlat, 5)
	spec.Backend = gateWarm.Name()
	store := cache.NewMemory()
	nodes, _ := newFleet(t, 3, store)
	coord, err := New(nodes, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var cold bytes.Buffer
	if _, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&cold)}}); err != nil {
		t.Fatal(err)
	}
	ranCold := gateWarm.Runs.Load()
	if ranCold == 0 {
		t.Fatal("cold execution performed no backend runs")
	}

	var warm bytes.Buffer
	if _, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&warm)}}); err != nil {
		t.Fatal(err)
	}
	if ranWarm := gateWarm.Runs.Load() - ranCold; ranWarm != 0 {
		t.Errorf("warm resubmission performed %d backend runs, want 0", ranWarm)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("warm replay bytes differ from cold execution")
	}
}

// TestCancelDrainsRemoteJobs cancels mid-fan-out with every run gated:
// the coordinator must return promptly, reap its remote jobs (no shard
// left running on any node) and leak no goroutines.
func TestCancelDrainsRemoteJobs(t *testing.T) {
	check := testutil.CheckGoroutines(t)
	spec := goldenSpec(campaign.SeedPerCell, 5)
	spec.Backend = gateCancel.Name()
	store := cache.NewMemory()
	nodes := make([]campaign.Runner, 0, 3)
	fleet := make([]*node, 0, 3)
	for i := 0; i < 3; i++ {
		mgr := jobs.NewManager(jobs.Config{Store: store})
		srv := httptest.NewServer(service.New(mgr).Handler())
		cli, err := client.New(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, cli)
		fleet = append(fleet, &node{mgr: mgr, srv: srv, cli: cli})
	}
	coord, err := New(nodes, Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, spec, campaign.ExecOptions{})
		res <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gateCancel.Started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no run entered the gate")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("cancelled execution reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled execution did not return")
	}

	// Every remote job must reach a terminal state: the dispatchers
	// cancel their shards on the way out, and the gated runs observe
	// the job context dying.
	for ni, n := range fleet {
		for _, snap := range n.mgr.List() {
			j, err := n.mgr.Get(snap.ID)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("node %d job %s still live after cancellation (state %s)", ni, snap.ID, j.Snapshot().State)
			}
		}
	}
	for _, n := range fleet {
		n.srv.Close()
		n.mgr.Close()
	}
	gateCancel.Release() // hygiene; nothing should be waiting
	check()
}

// rlErr mimics the SDK's rate-limited error: it unwraps to
// campaign.ErrRateLimited and carries a Retry-After hint through the
// RetryAfterHint method the dispatcher discovers via errors.As.
type rlErr struct{ after time.Duration }

func (e rlErr) Error() string                 { return "rate limited (injected)" }
func (e rlErr) Unwrap() error                 { return campaign.ErrRateLimited }
func (e rlErr) RetryAfterHint() time.Duration { return e.after }

// limitedNode wraps a real node's runner, rejecting the first
// `rejections` submissions as rate-limited.
type limitedNode struct {
	campaign.Runner
	rejections atomic.Int64 // remaining injected rejections
	submits    atomic.Int64
}

func (n *limitedNode) Submit(ctx context.Context, spec campaign.Spec) (campaign.Job, error) {
	n.submits.Add(1)
	if n.rejections.Add(-1) >= 0 {
		return campaign.Job{}, rlErr{after: 300 * time.Millisecond}
	}
	return n.Runner.Submit(ctx, spec)
}

// TestRateLimitedShardStaysOnNode: a rate-limited rejection must back
// off and retry the SAME node — the limit is per tenant, so rotating
// would just spread the rejection across the fleet — and the campaign
// still completes bit-identically once the bucket refills.
func TestRateLimitedShardStaysOnNode(t *testing.T) {
	// Single grid point + one shard = exactly one piece, dispatched from
	// node 0 — so any submission reaching node 1 is a rotation.
	spec := goldenSpec(campaign.SeedPerCell, 3)
	spec.Techniques = []string{"FAC2"}
	spec.Ns = []int64{128}
	wantJSONL, _ := localReference(t, spec)

	store := cache.NewMemory()
	runners, _ := newFleet(t, 2, store)
	n0 := &limitedNode{Runner: runners[0]}
	n0.rejections.Store(2)
	n1 := &limitedNode{Runner: runners[1]}
	coord, err := New([]campaign.Runner{n0, n1}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var buf bytes.Buffer
	if _, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}}); err != nil {
		t.Fatalf("campaign failed across rate limiting: %v", err)
	}
	// 2 rejections + 1 success, all on node 0; node 1 untouched.
	if n1.submits.Load() != 0 {
		t.Fatalf("rate-limited shard rotated to node 1 (%d submits there)", n1.submits.Load())
	}
	if got := n0.submits.Load(); got < 3 {
		t.Fatalf("node 0 saw %d submits, want ≥ 3 (2 rejections + success)", got)
	}
	// The Retry-After hint (300ms) floors both backoff sleeps over the
	// 100ms and 200ms policy delays.
	if elapsed := time.Since(start); elapsed < 600*time.Millisecond {
		t.Fatalf("campaign finished in %v, want ≥ 600ms (two floored backoffs)", elapsed)
	}
	if !bytes.Equal(buf.Bytes(), wantJSONL) {
		t.Error("merged JSONL after rate limiting differs from local reference")
	}
}
