package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/campaign"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/chaos"
)

// chaosFleet boots n in-process dlsimd nodes whose SDK clients route
// every request through a chaos.Injector armed with the given rules —
// the Doer-level harness, no proxy processes needed. All engines share
// one base seed, offset per node, so a failing run replays exactly.
func chaosFleet(t *testing.T, n int, store cache.Store, rules [][]chaos.Rule) ([]campaign.Runner, []*chaos.Engine) {
	t.Helper()
	_, fleet := newFleet(t, n, store)
	runners := make([]campaign.Runner, n)
	engines := make([]*chaos.Engine, n)
	for i, node := range fleet {
		eng, err := chaos.NewEngine(uint64(1000+i), rules[i]...)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := client.New(node.srv.URL,
			client.WithDoer(&chaos.Injector{Next: node.srv.Client(), Engine: eng}))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		runners[i] = cli
	}
	return runners, engines
}

// TestChaosGoldenByteIdentical is the fault-tolerance acceptance test:
// a 3-node fleet under injected connection resets, stream truncation,
// stream corruption and added latency — must still produce JSONL and
// aggregates byte-identical to a single-node run. Every fault knob is
// scheduling-only; the chaos harness proves it.
func TestChaosGoldenByteIdentical(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 5)
	wantJSONL, wantRes := localReference(t, spec)

	// FirstN-only fatal faults: deterministic placement and a
	// guaranteed-finite fault budget, so the retry policy always
	// converges. Node 1 owns the stream damage (truncate, then corrupt):
	// a broken merge stream retries on exactly one other node, so
	// damaging streams on two nodes could make both the stream and its
	// one retry fail.
	rules := [][]chaos.Rule{
		{ // node 0: first two submissions die with ECONNRESET
			{Name: "reset-submit", Method: "POST", Path: "/v1/jobs", Fault: chaos.FaultReset, FirstN: 2},
		},
		{ // node 1: first result stream truncated, second corrupted
			{Name: "trunc-results", Path: "/results", Fault: chaos.FaultTruncate, FirstN: 1, After: 200},
			{Name: "corrupt-results", Path: "/results", Fault: chaos.FaultCorrupt, FirstN: 1, After: 64},
		},
		{ // node 2: one reset plus sluggish status polls
			{Name: "reset-submit", Method: "POST", Path: "/v1/jobs", Fault: chaos.FaultReset, FirstN: 1},
			{Name: "slow-wait", Method: "GET", Path: "/v1/jobs", Fault: chaos.FaultLatency, FirstN: 3,
				Latency: chaos.Duration(5 * time.Millisecond)},
		},
	}
	nodes, engines := chaosFleet(t, 3, cache.NewMemory(), rules)
	coord, err := New(nodes, Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var buf bytes.Buffer
	res, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{KeepPerRun: true, Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}})
	if err != nil {
		t.Fatalf("campaign failed under chaos: %v", err)
	}
	var injected int64
	for _, eng := range engines {
		injected += eng.Injected()
	}
	if injected == 0 {
		t.Fatal("chaos profile never fired; the test proved nothing")
	}
	if !bytes.Equal(buf.Bytes(), wantJSONL) {
		t.Errorf("merged JSONL under chaos differs from single-node run (after %d injected faults)", injected)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("aggregates under chaos differ from single-node run")
	}
}

// TestBreakerTransitions pins the state machine with an injected
// clock: closed → open at threshold, blocked during cooldown, a single
// half-open probe after it, probe failure re-opens, probe success
// closes.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	var transitions []string
	b := newBreaker(3, time.Minute, func(to breakerState) {
		transitions = append(transitions, to.String())
	})
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, probe := b.allow(); !ok || probe {
			t.Fatalf("closed breaker answered (%v, probe %v) to attempt %d, want a plain admission", ok, probe, i)
		}
		b.failure(false)
	}
	if got := b.current(); got != breakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.failure(false) // third consecutive: trip
	if got := b.current(); got != breakerOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("open breaker admitted traffic inside cooldown")
	}

	now = now.Add(2 * time.Minute) // cooldown expired
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if got := b.current(); got != breakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.release(true) // probe abandoned without a verdict: slot frees, state holds
	if got := b.current(); got != breakerHalfOpen {
		t.Fatalf("state after release = %v, want half-open", got)
	}
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("released probe slot not reusable")
	}
	b.failure(true) // probe failed: re-open immediately
	if got := b.current(); got != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}

	now = now.Add(2 * time.Minute)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("second cooldown expiry refused the probe")
	}
	b.success(true)
	if got := b.current(); got != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if ok, probe := b.allow(); !ok || probe {
		t.Fatal("closed breaker refused traffic")
	}

	want := []string{"open", "half-open", "open", "half-open", "closed"}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Errorf("transition sequence %v, want %v", transitions, want)
	}
}

// TestBreakerRace hammers one breaker from many goroutines — the
// concurrent shard traffic shape — and checks invariants under -race:
// no deadlock, and at most one goroutine ever holds the half-open
// probe slot, counted from its grant until just before it settles.
func TestBreakerRace(t *testing.T) {
	b := newBreaker(3, time.Microsecond, nil)
	var probes atomic.Int64 // concurrently held half-open probe slots
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ok, probe := b.allow()
				if !ok {
					continue
				}
				if probe {
					if n := probes.Add(1); n > 1 {
						t.Errorf("%d concurrent half-open probes", n)
					}
					probes.Add(-1)
				}
				switch (g + i) % 3 {
				case 0:
					b.success(probe)
				case 1:
					b.failure(probe)
				default:
					b.release(probe)
				}
			}
		}(g)
	}
	wg.Wait()
	b.now = func() time.Time { return time.Now().Add(time.Hour) } // past any cooldown
	ok, probe := b.allow()
	if !ok {
		t.Fatal("breaker wedged after concurrent traffic")
	}
	b.success(probe)
	if ok, probe := b.allow(); !ok || probe {
		t.Fatalf("breaker not closed after a successful settle (state %v)", b.current())
	}
}

// TestBreakerLateSettleKeepsProbe: an attempt admitted while the
// breaker was closed can settle after the breaker has opened and
// admitted its half-open probe — a cancelled hedge loser releasing,
// say. That late settle must neither free the probe's slot, which
// would admit a second concurrent probe, nor move the breaker the
// probe is deciding.
func TestBreakerLateSettleKeepsProbe(t *testing.T) {
	for name, settle := range map[string]func(*breaker, bool){
		"release": (*breaker).release,
		"failure": (*breaker).failure,
		"success": (*breaker).success,
	} {
		t.Run(name, func(t *testing.T) {
			now := time.Unix(0, 0)
			b := newBreaker(3, time.Minute, nil)
			b.now = func() time.Time { return now }
			okA, probeA := b.allow() // A: admitted while closed
			if !okA || probeA {
				t.Fatalf("closed breaker answered (%v, probe %v), want a plain admission", okA, probeA)
			}
			for i := 0; i < 3; i++ {
				b.failure(false)
			}
			now = now.Add(2 * time.Minute)
			okB, probeB := b.allow() // B: the half-open probe
			if !okB || !probeB {
				t.Fatal("cooled-down breaker refused the half-open probe")
			}
			settle(b, probeA) // A settles late
			if ok, _ := b.allow(); ok {
				t.Fatalf("late %s of a closed-state attempt admitted a second probe", name)
			}
			if got := b.current(); got != breakerHalfOpen {
				t.Fatalf("state after the late %s = %v, want half-open until the probe settles", name, got)
			}
			b.success(probeB)
			if got := b.current(); got != breakerClosed {
				t.Fatalf("state after the probe's success = %v, want closed", got)
			}
		})
	}
}

// vetoNode refuses every offset sub-spec — a node that can only ever
// complete a campaign's first shard, the deterministic way to strand a
// suffix.
type vetoNode struct {
	campaign.Runner
}

func (n *vetoNode) Submit(ctx context.Context, spec campaign.Spec) (campaign.Job, error) {
	if spec.RepOffset > 0 {
		return campaign.Job{}, errors.New("injected: node refuses offset shards")
	}
	return n.Runner.Submit(ctx, spec)
}

// TestIncompleteKeepsPrefix drives a fleet into unrecoverable failure:
// the run must end in a typed *Incomplete that names the missing shard
// window and the fleet's condition, while the sinks hold the
// byte-identical completed prefix.
func TestIncompleteKeepsPrefix(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 10)
	spec.Techniques = []string{"FAC2"}
	spec.Ns = []int64{128} // one grid point: shards split along replications
	wantJSONL, _ := localReference(t, spec)
	prefix := firstLines(t, wantJSONL, 5)

	runners, _ := newFleet(t, 2, cache.NewMemory())
	nodes := []campaign.Runner{&vetoNode{runners[0]}, &vetoNode{runners[1]}}
	coord, err := New(nodes, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var buf bytes.Buffer
	res, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}})
	if err == nil || res != nil {
		t.Fatalf("unfinishable run returned (%v, %v), want typed error and nil result", res, err)
	}
	var inc *Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("error %v does not carry *Incomplete", err)
	}
	if inc.CompletedRuns != 5 || inc.TotalRuns != 10 {
		t.Errorf("completed %d/%d runs, want 5/10", inc.CompletedRuns, inc.TotalRuns)
	}
	if len(inc.Missing) != 1 {
		t.Fatalf("missing = %+v, want exactly the second shard", inc.Missing)
	}
	m := inc.Missing[0]
	if m.Shard != 1 || m.Point != 0 || m.RepOff != 5 || m.Reps != 5 {
		t.Errorf("missing window %+v, want shard 1, point 0, reps [5,10)", m)
	}
	if !contains(m.Cause, "injected") {
		t.Errorf("missing cause %q does not name the failure", m.Cause)
	}
	if len(inc.Nodes) != 2 {
		t.Fatalf("node report %+v, want both nodes", inc.Nodes)
	}
	for _, nf := range inc.Nodes {
		if nf.Breaker == "" || !contains(nf.Cause, "injected") {
			t.Errorf("node %d report %+v, want a breaker state and the injected failure as cause", nf.Node, nf)
		}
	}
	if !bytes.Equal(buf.Bytes(), prefix) {
		t.Errorf("sink holds %d bytes, want the byte-identical 5-run prefix (%d bytes)", buf.Len(), len(prefix))
	}
}

// failWriter refuses every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("injected: write refused") }

// TestIncompleteReportsSinkCloseError: a JSONL sink writes the
// completed prefix only when Close flushes it, so when the fleet cannot
// finish, a failed flush must reach the caller next to the *Incomplete
// report — otherwise the report vouches for a prefix the output does
// not hold.
func TestIncompleteReportsSinkCloseError(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 10)
	spec.Techniques = []string{"FAC2"}
	spec.Ns = []int64{128}

	runners, _ := newFleet(t, 2, cache.NewMemory())
	nodes := []campaign.Runner{&vetoNode{runners[0]}, &vetoNode{runners[1]}}
	coord, err := New(nodes, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, err = coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(failWriter{})}})
	var inc *Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("error %v does not carry *Incomplete", err)
	}
	if inc.CompletedRuns != 5 {
		t.Errorf("completed %d runs, want 5", inc.CompletedRuns)
	}
	if !contains(err.Error(), "injected: write refused") {
		t.Errorf("error %q does not report the failed sink flush", err)
	}
}

// TestIncompleteNumbersShards: one shard over a four-point spec is cut
// into four windows, one per point. Against dead nodes the report must
// list all four under shard 0 and count one missing shard, and the
// failed window's cause must keep its connection failure after the
// opened breakers leave no node eligible. A later window may still be
// in flight when the report is built, so it may read as abandoned.
func TestIncompleteNumbersShards(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 5)
	runners, fleet := newFleet(t, 2, cache.NewMemory())
	for _, n := range fleet {
		n.kill()
	}
	coord, err := New(runners, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, err = coord.Execute(context.Background(), spec, campaign.ExecOptions{})
	var inc *Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("error %v does not carry *Incomplete", err)
	}
	if !contains(err.Error(), "0/20 runs completed, 1 shard(s) missing") {
		t.Errorf("error %q does not count one missing shard of 20 runs", err)
	}
	if len(inc.Missing) != 4 {
		t.Fatalf("missing = %+v, want one window per grid point", inc.Missing)
	}
	for i, m := range inc.Missing {
		if m.Shard != 0 || m.Point != i || m.RepOff != 0 || m.Reps != 5 {
			t.Errorf("window %d = %+v, want shard 0, point %d, reps [0,5)", i, m, i)
		}
		if !contains(m.Cause, "connection refused") && (i == 0 || !contains(m.Cause, "abandoned after")) {
			t.Errorf("window %d cause %q lost the connection failure", i, m.Cause)
		}
	}
	if got := coord.mTransitions.With("0", "open").Value() + coord.mTransitions.With("1", "open").Value(); got == 0 {
		t.Error("no breaker opened; the no-eligible-node path went untested")
	}
}

// slowNode blocks its first submission until its context dies — a
// straggler that never finishes the shard, the shape hedging exists
// for. Later submissions (the reap of the abandoned attempt) go
// through.
type slowNode struct {
	campaign.Runner
	submits atomic.Int64
}

func (n *slowNode) Submit(ctx context.Context, spec campaign.Spec) (campaign.Job, error) {
	if n.submits.Add(1) == 1 {
		<-ctx.Done()
		return campaign.Job{}, ctx.Err()
	}
	return n.Runner.Submit(ctx, spec)
}

// TestHedgedShardWins points a campaign's only shard at a node that
// never answers: after HedgeAfter the coordinator must speculatively
// re-dispatch on the second node, take its result, cancel the
// straggler, and count both the hedge and its win.
func TestHedgedShardWins(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 3)
	spec.Techniques = []string{"FAC2"}
	spec.Ns = []int64{128}
	wantJSONL, _ := localReference(t, spec)

	runners, _ := newFleet(t, 2, cache.NewMemory())
	nodes := []campaign.Runner{&slowNode{Runner: runners[0]}, runners[1]}
	coord, err := New(nodes, Options{Shards: 1, HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}}); err != nil {
		t.Fatalf("hedged campaign failed: %v", err)
	}
	if err := coord.Close(); err != nil { // waits out the cancelled straggler's reap
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantJSONL) {
		t.Error("hedged result differs from single-node run")
	}
	if got := coord.mHedges.Value(); got != 1 {
		t.Errorf("hedges counter = %d, want 1", got)
	}
	if got := coord.mHedgeWins.Value(); got != 1 {
		t.Errorf("hedge wins counter = %d, want 1", got)
	}
	if nodes[0].(*slowNode).submits.Load() == 0 {
		t.Error("straggler node never saw the primary dispatch")
	}
}

// countingNode counts the submissions that reach a real node.
type countingNode struct {
	campaign.Runner
	submits atomic.Int64
}

func (n *countingNode) Submit(ctx context.Context, spec campaign.Spec) (campaign.Job, error) {
	n.submits.Add(1)
	return n.Runner.Submit(ctx, spec)
}

// TestHealthPoolRoutesAroundDrain: a node whose job manager is draining
// refuses every submission (dlsimd answers shutting_down, which the SDK
// maps to campaign.ErrClosed); the coordinator must rotate each refused
// shard to the other node, leave the draining node holding no job, and
// complete bit-identically. The name predates the deletion of the
// health-probed node pool: refusal, rotation and the breaker now do
// what the pool did, and the test keeps its ID so the suite's record of
// it continues.
func TestHealthPoolRoutesAroundDrain(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 5)
	wantJSONL, _ := localReference(t, spec)

	runners, fleet := newFleet(t, 2, cache.NewMemory())
	fleet[0].mgr.Drain()
	draining := &countingNode{Runner: runners[0]}
	coord, err := New([]campaign.Runner{draining, runners[1]}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var buf bytes.Buffer
	if _, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}}); err != nil {
		t.Fatalf("campaign failed on the surviving node: %v", err)
	}
	if draining.submits.Load() == 0 {
		t.Error("no shard was offered to the draining node; the test proved nothing")
	}
	if jobs := fleet[0].mgr.List(); len(jobs) != 0 {
		t.Errorf("draining node holds %d jobs, want 0", len(jobs))
	}
	if !bytes.Equal(buf.Bytes(), wantJSONL) {
		t.Error("single-survivor result differs from reference")
	}
}

// TestHealthProbeOpensDeadNodeBreaker: a node killed before the
// campaign starts fails every shard whose rotation begins there; those
// shard failures alone must open its breaker, visible on the
// transition counter, while the survivors deliver the reference bytes.
// The name predates the deletion of the health prober, which used to
// open the breaker from failed probes; the test keeps its ID so the
// suite's record of it continues.
func TestHealthProbeOpensDeadNodeBreaker(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 5)
	wantJSONL, _ := localReference(t, spec)

	runners, fleet := newFleet(t, 3, cache.NewMemory())
	fleet[0].kill()
	// 20 runs in 8 shards of 2 or 3 cut into 11 pieces; pieces 0, 3, 6
	// and 9 begin their rotation on the dead node 0.
	coord, err := New(runners, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var buf bytes.Buffer
	if _, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}}); err != nil {
		t.Fatalf("campaign failed on the survivors: %v", err)
	}
	if got := coord.mTransitions.With("0", "open").Value(); got < 1 {
		t.Errorf("breaker open-transition counter = %d, want >= 1", got)
	}
	if !bytes.Equal(buf.Bytes(), wantJSONL) {
		t.Error("survivors' result differs from reference")
	}
}

func firstLines(t *testing.T, b []byte, n int) []byte {
	t.Helper()
	off := 0
	for i := 0; i < n; i++ {
		j := bytes.IndexByte(b[off:], '\n')
		if j < 0 {
			t.Fatalf("reference stream has fewer than %d lines", n)
		}
		off += j + 1
	}
	return b[:off]
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
