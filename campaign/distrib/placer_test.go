package distrib

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/campaign"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/telemetry"
)

// firstNode records, per sub-spec hash, the node that saw the spec's
// first submission: where each piece's rotation started.
type firstNode struct {
	mu    sync.Mutex
	nodes map[string]int
}

type recordingNode struct {
	campaign.Runner
	node int
	seen *firstNode
}

func (n *recordingNode) Submit(ctx context.Context, spec campaign.Spec) (campaign.Job, error) {
	if h, err := spec.Hash(); err == nil {
		n.seen.mu.Lock()
		if _, ok := n.seen.nodes[h]; !ok {
			n.seen.nodes[h] = n.node
		}
		n.seen.mu.Unlock()
	}
	return n.Runner.Submit(ctx, spec)
}

// counted wraps each runner in a countingNode: with no failed attempt,
// a node's submissions are the pieces started there.
func counted(runners []campaign.Runner) ([]campaign.Runner, []*countingNode) {
	nodes := make([]campaign.Runner, len(runners))
	counts := make([]*countingNode, len(runners))
	for i, r := range runners {
		counts[i] = &countingNode{Runner: r}
		nodes[i] = counts[i]
	}
	return nodes, counts
}

// runJSONL executes spec through coord and fails the test unless the
// merged JSONL equals the local reference.
func runJSONL(t *testing.T, coord *Coordinator, spec campaign.Spec) {
	t.Helper()
	want, _ := localReference(t, spec)
	var buf bytes.Buffer
	if _, err := coord.Execute(context.Background(), spec,
		campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}}); err != nil {
		t.Fatalf("seed %d: %v", spec.Seed, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("seed %d: merged JSONL differs from the local run", spec.Seed)
	}
}

// TestPlacementShiftsOffSlowNode: two nodes, one behind a fixed 50 ms
// submit latency injected below its SDK client, as the benchmark's
// slow link is. The first campaign is placed by the static rotation,
// half its pieces on each node; after it the coordinator has seen both
// nodes finish work and must start fewer than half of the pieces on
// the slow node. Every campaign's bytes equal the local run's.
func TestPlacementShiftsOffSlowNode(t *testing.T) {
	slow := []chaos.Rule{{Name: "slow-submit", Method: http.MethodPost, Path: "/v1/jobs",
		Fault: chaos.FaultLatency, P: 1, Latency: chaos.Duration(50 * time.Millisecond)}}
	runners, _ := chaosFleet(t, 2, cache.NewMemory(), [][]chaos.Rule{nil, slow})
	nodes, counts := counted(runners)
	coord, err := New(nodes, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec := goldenSpec(campaign.SeedPerCell, 5) // 4 points in 2 shards: 4 pieces
	runJSONL(t, coord, spec)
	fast, slowN := counts[0].submits.Load(), counts[1].submits.Load()
	if fast != 2 || slowN != 2 {
		t.Fatalf("first campaign started [%d %d] pieces per node, want the rotation's [2 2]", fast, slowN)
	}
	for k := 1; k <= 5; k++ {
		spec.Seed = 20170808 + uint64(k)
		runJSONL(t, coord, spec)
	}
	onSlow := counts[1].submits.Load() - slowN
	total := counts[0].submits.Load() - fast + onSlow
	if 2*onSlow >= total {
		t.Errorf("slow node started %d of %d pieces after the first campaign, want fewer than half", onSlow, total)
	}
}

// TestFreshCoordinatorRotates: a coordinator that has not seen every
// node finish an attempt places piece i on node i mod N, the static
// rotation, so a single campaign is placed exactly as before adaptive
// placement existed.
func TestFreshCoordinatorRotates(t *testing.T) {
	spec := goldenSpec(campaign.SeedPerCell, 5)
	const shards = 7 // 20 runs in 7 shards cut into 9 pieces
	pieces, err := plan(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	runners, _ := newFleet(t, 3, cache.NewMemory())
	seen := &firstNode{nodes: make(map[string]int)}
	for i, r := range runners {
		runners[i] = &recordingNode{Runner: r, node: i, seen: seen}
	}
	coord, err := New(runners, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	runJSONL(t, coord, spec)
	for _, p := range pieces {
		h, err := p.spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		ni, ok := seen.nodes[h] // every Submit has returned
		if !ok || ni != p.index%3 {
			t.Errorf("piece %d started on node %d (recorded %v), want %d", p.index, ni, ok, p.index%3)
		}
	}
}

// refusingNode refuses every submission at once while refuse is set,
// and holds it until the caller gives up while hang is set.
type refusingNode struct {
	campaign.Runner
	refuse, hang atomic.Bool
	submits      atomic.Int64
}

func (n *refusingNode) Submit(ctx context.Context, spec campaign.Spec) (campaign.Job, error) {
	n.submits.Add(1)
	switch {
	case n.refuse.Load():
		return campaign.Job{}, errors.New("injected: submit refused")
	case n.hang.Load():
		<-ctx.Done()
		return campaign.Job{}, ctx.Err()
	}
	return n.Runner.Submit(ctx, spec)
}

// estimate reads node ni's placement estimate and whether it is fresh.
func (c *Coordinator) estimate(ni int) (float64, bool) {
	c.placer.mu.Lock()
	defer c.placer.mu.Unlock()
	return c.placer.est[ni], c.placer.fresh(ni, c.placer.now())
}

// attemptGauge reads dlsim_fleet_node_attempt_seconds for one node.
func attemptGauge(t *testing.T, reg *telemetry.Registry, ni int) (float64, bool) {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	reg.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Has("dlsim_fleet_node_attempt_seconds") {
		t.Fatal("dlsim_fleet_node_attempt_seconds is not exported")
	}
	return exp.Value("dlsim_fleet_node_attempt_seconds", map[string]string{"node": fmt.Sprint(ni)})
}

// TestFailingNodeNeverCheapest: a node that fails every attempt, and
// fails it fast, must never look like the cheapest node. It gets no
// estimate and no gauge sample, so placement stays on the rotation
// while the working node's estimate is exported.
func TestFailingNodeNeverCheapest(t *testing.T) {
	runners, _ := newFleet(t, 2, cache.NewMemory())
	bad := &refusingNode{Runner: runners[0]}
	bad.refuse.Store(true)
	reg := telemetry.NewRegistry()
	coord, err := New([]campaign.Runner{bad, runners[1]}, Options{Shards: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec := goldenSpec(campaign.SeedPerCell, 5)
	for k := 0; k < 3; k++ {
		spec.Seed = 20170808 + uint64(k)
		runJSONL(t, coord, spec)
	}
	if bad.submits.Load() == 0 {
		t.Fatal("no piece was offered to the failing node; the test proved nothing")
	}
	if _, ok := coord.estimate(0); ok {
		t.Error("failing node holds an estimate")
	}
	if _, ok := coord.estimate(1); !ok {
		t.Error("working node holds no estimate")
	}
	if v, ok := attemptGauge(t, reg, 0); ok {
		t.Errorf("gauge reports %v s for the failing node, want no sample", v)
	}
	if v, ok := attemptGauge(t, reg, 1); !ok || v <= 0 {
		t.Errorf("gauge for the working node = (%v, %v), want a positive sample", v, ok)
	}
	for i := 0; i < 4; i++ {
		got := coord.placer.start(i)
		coord.placer.done(got)
		if got != i%2 {
			t.Errorf("piece %d starts on node %d, want the rotation's %d", i, got, i%2)
		}
	}
}

// TestFailedOrCancelledAttemptKeepsEstimate: node 0 holds the cheaper
// estimate, so both pieces of a one-point, two-shard campaign start
// there. Attempts it refuses at once, and attempts cancelled while it
// holds them, end without a verdict on its speed and must leave its
// estimate exactly as it was. Two refusals stay below the breaker's
// threshold, so the cancelled campaign starts there too.
func TestFailedOrCancelledAttemptKeepsEstimate(t *testing.T) {
	runners, _ := newFleet(t, 2, cache.NewMemory())
	n0 := &refusingNode{Runner: runners[0]}
	coord, err := New([]campaign.Runner{n0, runners[1]}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	frozen := time.Now() // the estimates never age, however slow the host
	coord.placer.now = func() time.Time { return frozen }
	const cheap = 0.25 // seconds
	coord.placer.observe(0, 250*time.Millisecond)
	coord.placer.observe(1, time.Hour)
	spec := goldenSpec(campaign.SeedPerCell, 6)
	spec.Techniques = []string{"FAC2"}
	spec.Ns = []int64{128}

	n0.refuse.Store(true)
	runJSONL(t, coord, spec)
	if got := n0.submits.Load(); got != 2 {
		t.Fatalf("cheaper node saw %d submissions, want both pieces' first attempts", got)
	}
	if est, ok := coord.estimate(0); !ok || est != cheap {
		t.Errorf("after refused attempts node 0's estimate = (%v, %v), want (%v, true)", est, ok, cheap)
	}

	n0.refuse.Store(false)
	n0.hang.Store(true)
	spec.Seed++
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, spec, campaign.ExecOptions{})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for n0.submits.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("the pieces never reached the hanging node")
		}
		time.Sleep(time.Millisecond)
	}
	n0.hang.Store(false) // let the cancelled attempts' reaps through
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if est, ok := coord.estimate(0); !ok || est != cheap {
		t.Errorf("after a cancelled attempt node 0's estimate = (%v, %v), want (%v, true)", est, ok, cheap)
	}
}

// TestExpiredEstimateRotates pins the age rule with an injected clock:
// an estimate estimateMaxAge old still counts, one a moment older is
// missing and sends placement back to the rotation until that node
// has a fresh sample, and a sample after expiry restarts the estimate
// instead of blending with the stale one.
func TestExpiredEstimateRotates(t *testing.T) {
	now := time.Unix(0, 0)
	p := newPlacer(2)
	p.now = func() time.Time { return now }
	start := func(index int) int {
		ni := p.start(index)
		p.done(ni)
		return ni
	}
	p.observe(0, 10*time.Millisecond)
	p.observe(1, time.Millisecond)
	if got := start(0); got != 1 {
		t.Fatalf("with fresh estimates piece 0 starts on node %d, want the cheaper node 1", got)
	}
	now = now.Add(estimateMaxAge)
	if got := start(0); got != 1 {
		t.Fatalf("at exactly the maximum age piece 0 starts on node %d, want node 1", got)
	}
	now = now.Add(time.Nanosecond)
	if got := start(0); got != 0 {
		t.Fatalf("with expired estimates piece 0 starts on node %d, want the rotation's node 0", got)
	}
	if got := p.samples(); len(got) != 0 {
		t.Fatalf("expired estimates still sampled: %+v", got)
	}
	p.observe(1, time.Millisecond) // node 0 still expired
	if got := start(0); got != 0 {
		t.Fatalf("with one estimate expired piece 0 starts on node %d, want the rotation's node 0", got)
	}
	p.observe(0, 2*time.Millisecond)
	if p.est[0] != 0.002 {
		t.Fatalf("a sample after expiry left estimate %v, want the sample itself, 0.002", p.est[0])
	}
	if got := start(0); got != 1 {
		t.Fatalf("with both estimates fresh again piece 0 starts on node %d, want the cheaper node 1", got)
	}
}

// TestEqualNodesSpread: adaptive placement must not herd pieces onto
// one of two equal nodes. With equal estimates, pieces in flight
// alternate between them exactly; on two real equal nodes, a campaign
// after the first still starts pieces on both.
func TestEqualNodesSpread(t *testing.T) {
	p := newPlacer(2)
	p.observe(0, 5*time.Millisecond)
	p.observe(1, 5*time.Millisecond)
	for i := 0; i < 6; i++ {
		if got := p.start(i); got != i%2 {
			t.Fatalf("equal estimates: piece %d starts on node %d, want %d", i, got, i%2)
		}
	}

	runners, _ := newFleet(t, 2, cache.NewMemory())
	nodes, counts := counted(runners)
	coord, err := New(nodes, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := goldenSpec(campaign.SeedPerCell, 5)
	runJSONL(t, coord, spec)
	for k := 1; k <= 2; k++ {
		before0, before1 := counts[0].submits.Load(), counts[1].submits.Load()
		spec.Seed = 20170808 + uint64(k)
		runJSONL(t, coord, spec)
		if n0, n1 := counts[0].submits.Load()-before0, counts[1].submits.Load()-before1; n0 == 0 || n1 == 0 {
			t.Errorf("campaign %d started [%d %d] pieces per node on equal nodes, want both in use", k+1, n0, n1)
		}
	}
}
