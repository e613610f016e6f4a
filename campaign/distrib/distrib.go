package distrib

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/campaign"
	"repro/internal/telemetry"
)

// Options tune the coordinator's sharding and fault handling. Every
// knob is scheduling-only: results are bit-identical for any
// combination of values, including the node count itself.
type Options struct {
	// Shards is the target number of contiguous segments the
	// (point × replication) grid is cut into. Each segment decomposes
	// into one sub-spec per grid point it touches, and each sub-spec is
	// one remote job. 0 means one shard per node; counts beyond the
	// grid's total run count are clamped.
	Shards int
	// HedgeAfter, when positive, arms straggler hedging: a shard still
	// unplaced (or unfinished) after this budget is speculatively
	// re-dispatched on the next eligible node, first completion wins
	// and the loser is cancelled. Spec-hash dedup plus a shared
	// content-addressed store make the duplicate nearly free. 0
	// disables hedging.
	HedgeAfter time.Duration
	// Registry receives the coordinator's fault-tolerance metrics
	// (breaker states and transitions, hedge and retry counters). nil
	// means a private registry; a shared registry must not be given to
	// two coordinators (duplicate registration panics).
	Registry *telemetry.Registry
}

// The fixed fault-handling policy. A shard gets `attempts` placements,
// rotating through the fleet, so it survives two node failures; retry r
// sleeps backoffBase·2^r, capped at backoffMax, or the server's
// Retry-After when that is longer.
const (
	maxPerNode       = 4                      // shards in flight against one node
	attempts         = 3                      // placements per shard
	backoffBase      = 100 * time.Millisecond // delay before a shard's first retry
	backoffMax       = 5 * time.Second
	cleanupTimeout   = 5 * time.Second // bounds a best-effort remote cancel or orphan reap
	breakerThreshold = 3               // consecutive node failures that open a breaker
	breakerCooldown  = 2 * time.Second // how long an open breaker blocks before a half-open probe
)

// Coordinator fans one campaign out across a fleet of runners — dlsimd
// nodes reached through client.Client — and merges the result streams
// bit-identically to a single-node run. It is a campaign.Executor: Execute places every shard and
// merges their streams on a rolling frontier, so campaign.Run drives a
// fleet exactly as it drives one node.
type Coordinator struct {
	nodes  []campaign.Runner
	opts   Options
	sems   []chan struct{} // per-node in-flight shard bound
	brs    []*breaker      // per-node circuit breakers
	placer *placer         // where each piece's rotation starts

	bg sync.WaitGroup // hedge losers still cleaning up

	mHedges, mHedgeWins, mRetries *telemetry.Counter
	mTransitions                  *telemetry.CounterVec

	mu      sync.Mutex
	lastErr []string // per node: most recent attempt failure, for *Incomplete
}

var _ campaign.Executor = (*Coordinator)(nil)

// New returns a coordinator over the given fleet. The node list is
// scheduling-only: any fleet produces bit-identical results for a
// given spec and shard count, and the shard count itself only moves
// the cut points, never the bytes.
func New(nodes []campaign.Runner, opts Options) (*Coordinator, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("distrib: no nodes")
	}
	if opts.Shards <= 0 {
		opts.Shards = len(nodes)
	}
	c := &Coordinator{
		nodes:   nodes,
		opts:    opts,
		sems:    make([]chan struct{}, len(nodes)),
		brs:     make([]*breaker, len(nodes)),
		placer:  newPlacer(len(nodes)),
		lastErr: make([]string, len(nodes)),
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c.mHedges = reg.Counter("dlsim_fleet_hedges_total", "Hedged shard submissions launched.")
	c.mHedgeWins = reg.Counter("dlsim_fleet_hedge_wins_total", "Hedged submissions that finished before the primary.")
	c.mRetries = reg.Counter("dlsim_fleet_shard_retries_total", "Shard placement retry attempts.")
	c.mTransitions = reg.CounterVec("dlsim_fleet_breaker_transitions_total",
		"Circuit breaker state transitions, by node index and new state.", "node", "to")
	for i := range nodes {
		c.sems[i] = make(chan struct{}, maxPerNode)
		ni := strconv.Itoa(i)
		c.brs[i] = newBreaker(breakerThreshold, breakerCooldown, func(to breakerState) {
			c.mTransitions.With(ni, to.String()).Inc()
		})
	}
	reg.GaugeSetFunc("dlsim_fleet_breaker_state",
		"Per-node circuit breaker state (0 closed, 1 open, 2 half-open).", []string{"node"},
		func() []telemetry.Sample {
			out := make([]telemetry.Sample, len(c.brs))
			for i, b := range c.brs {
				out[i] = telemetry.Sample{Values: []string{strconv.Itoa(i)}, V: float64(b.current())}
			}
			return out
		})
	reg.GaugeSetFunc("dlsim_fleet_node_attempt_seconds",
		"Per-node smoothed wall time of successful shard attempts, submit through wait; absent while a node has no fresh estimate.",
		[]string{"node"}, c.placer.samples)
	return c, nil
}

// Close waits for hedge losers still cleaning up remote state. It does
// not cancel jobs already submitted.
func (c *Coordinator) Close() error {
	c.bg.Wait()
	return nil
}

// piece is one remote job of a sharded campaign: a single grid point's
// replication window, carved out of the parent spec. Pieces are
// indexed in the parent's deterministic stream order (point-major,
// then replication), which is exactly the order the merge stage
// forwards them in.
type piece struct {
	index  int // merge order
	shard  int // plan segment the piece belongs to
	point  int // parent grid point index
	repOff int // window start within the point
	reps   int // window length
	spec   campaign.Spec
}

// plan cuts the spec's global run sequence (GridPoints × Replications
// runs, in stream order) into `shards` contiguous segments of
// near-equal size and decomposes each segment into per-point pieces.
// The segment boundaries depend only on (grid, replications, shards),
// so equal inputs always yield the identical plan.
func plan(spec campaign.Spec, shards int) ([]piece, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.RepOffset != 0 {
		// Nothing fundamental forbids re-sharding a shard, but a
		// coordinator is fed whole campaigns; a pre-offset spec here is
		// almost certainly a plumbing mistake.
		return nil, fmt.Errorf("distrib: spec has rep offset %d; submit the parent spec", spec.RepOffset)
	}
	points, r := spec.GridPoints(), spec.Replications
	total := points * r
	if shards > total {
		shards = total
	}
	if shards < 1 {
		shards = 1
	}
	pieces := make([]piece, 0, shards+points)
	base, rem := total/shards, total%shards
	start := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		for a, end := start, start+size; a < end; {
			pt, off := a/r, a%r
			take := r - off
			if take > end-a {
				take = end - a
			}
			sub, err := spec.SubSpec(pt, off, take)
			if err != nil {
				return nil, err
			}
			pieces = append(pieces, piece{index: len(pieces), shard: s, point: pt, repOff: off, reps: take, spec: sub})
			a += take
		}
		start += size
	}
	return pieces, nil
}

// String names the piece's window for error messages.
func (p piece) String() string {
	return fmt.Sprintf("shard %d (point %d, reps [%d,%d))", p.shard, p.point, p.repOff, p.repOff+p.reps)
}

// placement records where a dispatched piece ran.
type placement struct {
	node int
	id   string
}

// acquire takes one in-flight slot on node ni.
func (c *Coordinator) acquire(ctx context.Context, ni int) error {
	select {
	case c.sems[ni] <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff is the policy delay before retry number retry+1.
func backoff(retry int) time.Duration {
	d := backoffBase
	for i := 0; i < retry && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfterHint extracts the server's Retry-After backoff from a
// rate-limited error chain. The hint travels as a method rather than a
// concrete type so this package never imports the HTTP client.
func retryAfterHint(err error) time.Duration {
	var h interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &h) {
		return h.RetryAfterHint()
	}
	return 0
}

// dispatch places one piece on the fleet: submit + wait to completion
// on a node, retrying with exponential backoff across the remaining
// nodes on transient failure. The rotation begins at startNode. Each
// successful attempt's wall time feeds the node's placement estimate.
//
// A rate-limited rejection (campaign.ErrRateLimited) does not rotate:
// the limit is per tenant, so the next node would refuse the shard just
// the same, and hopping only spreads the rejection storm across the
// fleet. The shard backs off on the spot — honoring the server's
// Retry-After when it exceeds the policy backoff — and retries the same
// node.
func (c *Coordinator) dispatch(ctx context.Context, p piece, startNode int) (placement, error) {
	var last, lastAttempt error
	rot := 0 // rotation offset; frozen while rate-limited
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.mRetries.Inc()
			if err := sleepCtx(ctx, max(backoff(a-1), retryAfterHint(last))); err != nil {
				break
			}
		}
		ni, probe, ok := c.pick(startNode + rot)
		if !ok {
			// Every node's breaker is blocking right now. That is a
			// transient fleet condition, not a verdict on the shard: burn
			// the attempt and back off, so a cooldown expiry can reopen a
			// path. The last attempt's error stays the cause.
			const noNode = "no eligible node (every breaker open or probing)"
			last = fmt.Errorf("distrib: %v: %s", p, noNode)
			if lastAttempt != nil {
				last = fmt.Errorf("%w; then %s", lastAttempt, noNode)
			}
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if err := c.acquire(ctx, ni); err != nil {
			c.brs[ni].release(probe)
			break
		}
		t0 := c.placer.now()
		pl, err := c.attempt(ctx, ni, p)
		<-c.sems[ni]
		if err == nil {
			c.placer.observe(ni, c.placer.now().Sub(t0))
			c.brs[ni].success(probe)
			return pl, nil
		}
		c.mu.Lock()
		c.lastErr[ni] = err.Error()
		c.mu.Unlock()
		// Only node-attributable failures feed the breaker: a cancelled
		// context, a per-tenant rate limit, or a job that ran to a
		// deterministic terminal failure says nothing about node health.
		var term *errJobTerminal
		switch {
		case ctx.Err() != nil, errors.Is(err, campaign.ErrRateLimited), errors.As(err, &term):
			c.brs[ni].release(probe)
		default:
			c.brs[ni].failure(probe)
		}
		if !errors.Is(err, campaign.ErrRateLimited) {
			rot++
		}
		lastAttempt = fmt.Errorf("distrib: %v on node %d: %w", p, ni, err)
		last = lastAttempt
		if ctx.Err() != nil {
			break
		}
	}
	if last == nil {
		last = fmt.Errorf("distrib: %v: %w", p, ctx.Err())
	}
	return placement{}, last
}

// place is dispatch plus straggler hedging. When HedgeAfter elapses
// with the primary dispatch still in flight, the shard is speculatively
// re-dispatched starting from the next node; the first completion wins
// and the loser's context is cancelled (its dispatcher reaps the
// remote job on the way out). Hash dedup and the shared store make the
// duplicate nearly free; either way the shard's bytes are fixed by the
// spec, so hedging is scheduling-only.
func (c *Coordinator) place(ctx context.Context, p piece, startNode int) (placement, error) {
	if c.opts.HedgeAfter <= 0 {
		return c.dispatch(ctx, p, startNode)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		pl    placement
		err   error
		hedge bool
	}
	ch := make(chan res, 2) // buffered: losers never block on send
	launch := func(start int, hedge bool) {
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			pl, err := c.dispatch(hctx, p, start)
			ch <- res{pl, err, hedge}
		}()
	}
	launch(startNode, false)
	launched, finished := 1, 0
	t := time.NewTimer(c.opts.HedgeAfter)
	defer t.Stop()
	var firstErr error
	for {
		select {
		case <-t.C:
			if launched == 1 && ctx.Err() == nil {
				c.mHedges.Inc()
				launch(startNode+1, true)
				launched = 2
			}
		case r := <-ch:
			finished++
			if r.err == nil {
				if r.hedge {
					c.mHedgeWins.Inc()
				}
				return r.pl, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if finished == launched {
				return placement{}, firstErr
			}
		}
	}
}

// attempt runs one piece on one node. A failed or cancelled wait reaps
// the remote job (best effort, bounded, and only when this coordinator
// owns it — a deduped submission joined a job someone else is also
// watching), so an abandoned shard, such as a hedge's loser, never
// keeps burning a node.
func (c *Coordinator) attempt(ctx context.Context, ni int, p piece) (placement, error) {
	node := c.nodes[ni]
	jb, err := node.Submit(ctx, p.spec)
	if err != nil {
		if ctx.Err() != nil {
			// The attempt was cancelled mid-submit (a hedge's loser, or
			// the caller gave up): the response is lost, but the server
			// may have created the job anyway. Re-submitting with a
			// bounded, non-cancelled context joins any such orphan through
			// the hash dedup and yields an ID to cancel; if no orphan
			// exists, the probe job is cancelled before it runs.
			c.reap(ctx, node, p.spec)
		}
		return placement{}, err
	}
	snap, err := node.Wait(ctx, jb.ID)
	if err != nil {
		if !jb.Deduped {
			cctx, ccancel := context.WithTimeout(context.WithoutCancel(ctx), cleanupTimeout)
			_ = node.Cancel(cctx, jb.ID)
			ccancel()
		}
		return placement{}, err
	}
	if snap.State != campaign.StateDone {
		return placement{}, &errJobTerminal{fmt.Errorf("job %s ended %s: %s", jb.ID, snap.State, snap.Error)}
	}
	return placement{node: ni, id: jb.ID}, nil
}

// errJobTerminal marks a job that the node executed to a terminal
// non-done state — the node did its work; the failure belongs to the
// campaign, so it must not feed the node's circuit breaker.
type errJobTerminal struct{ err error }

func (e *errJobTerminal) Error() string { return e.err.Error() }
func (e *errJobTerminal) Unwrap() error { return e.err }

// reap cancels a possibly orphaned shard job on a node, addressing it
// by spec hash via submit dedup. Best effort and bounded; used only
// when an aborted submission may have left a job behind.
func (c *Coordinator) reap(ctx context.Context, node campaign.Runner, spec campaign.Spec) {
	rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cleanupTimeout)
	defer cancel()
	jb, err := node.Submit(rctx, spec)
	if err != nil {
		return
	}
	_ = node.Cancel(rctx, jb.ID)
}

// remapSink rewrites one piece's shard-local event coordinates
// (point 0, rep r) back to the parent grid's (point, repOff+r) and
// forwards to the merge sinks. Close is a no-op: the runner's Stream
// closes its sinks per call, but the merge sinks span every piece and
// are closed once by the coordinator. next makes re-streaming after a
// mid-stream node failure idempotent: rows a broken stream already
// delivered are skipped, so the sinks observe every row exactly once.
type remapSink struct {
	point, repOff int
	next          int // shard-local rep of the next undelivered row
	sinks         []campaign.Sink
}

func (r *remapSink) Consume(ctx context.Context, ev campaign.Event) error {
	if ev.Rep < r.next {
		return nil
	}
	local := ev.Rep
	ev.Point = r.point
	ev.Rep += r.repOff
	for _, s := range r.sinks {
		if err := s.Consume(ctx, ev); err != nil {
			return err
		}
	}
	r.next = local + 1
	return nil
}

func (r *remapSink) Close() error { return nil }

// streamPiece delivers one completed piece's events, remapped to
// parent coordinates, to the merge sinks. If the stream breaks and the
// caller's context is still alive — the node died after finishing the
// shard — the piece is re-dispatched on the rest of the fleet and the
// remainder streamed from there; with a shared content-addressed store
// the re-execution is a cache replay costing zero backend runs.
func (c *Coordinator) streamPiece(ctx context.Context, p piece, pl placement, sinks []campaign.Sink) error {
	rs := &remapSink{point: p.point, repOff: p.repOff, sinks: sinks}
	err := c.nodes[pl.node].Stream(ctx, pl.id, rs)
	if err == nil || ctx.Err() != nil {
		return err
	}
	pl2, err2 := c.dispatch(ctx, p, pl.node+1)
	if err2 != nil {
		return fmt.Errorf("distrib: re-fetch %v after stream failure (%v): %w", p, err, err2)
	}
	return c.nodes[pl2.node].Stream(ctx, pl2.id, rs)
}

// fanout is one campaign's concurrent placement: a goroutine per piece
// around place. pls[i] and errs[i] are piece i's outcome, readable once
// done[i] is closed.
type fanout struct {
	pls  []placement
	errs []error
	done []chan struct{}
	wg   sync.WaitGroup
}

// fanOut starts placing every piece under ctx. Each piece's rotation
// starts at the node the placer expects to finish it first, chosen in
// plan order before the piece's goroutine starts, so every earlier
// piece of the campaign already counts as in flight.
func (c *Coordinator) fanOut(ctx context.Context, pieces []piece) *fanout {
	f := &fanout{
		pls:  make([]placement, len(pieces)),
		errs: make([]error, len(pieces)),
		done: make([]chan struct{}, len(pieces)),
	}
	for i := range pieces {
		f.done[i] = make(chan struct{})
		start := c.placer.start(pieces[i].index)
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			defer close(f.done[i])
			f.pls[i], f.errs[i] = c.place(ctx, pieces[i], start)
			c.placer.done(start)
		}(i)
	}
	return f
}

// run fans the spec out and merges the shard streams into sinks (which
// it does not close) in the parent's deterministic order.
func (c *Coordinator) run(ctx context.Context, spec campaign.Spec, sinks []campaign.Sink) error {
	pieces, err := plan(spec, c.opts.Shards)
	if err != nil {
		return err
	}
	fctx, cancel := context.WithCancel(ctx)
	f := c.fanOut(fctx, pieces)
	defer f.wg.Wait() // leak-free: runs after cancel, so dispatchers drain
	defer cancel()
	// Merge in plan order: piece i streams as soon as it and every
	// earlier piece have completed, while later pieces keep executing —
	// the merge is a rolling frontier, not a barrier.
	//
	// An unrecoverable shard stops the frontier: everything merged so
	// far is the byte-identical completed prefix, and unless the caller
	// gave up, the error returned is a typed *Incomplete report built
	// before the remaining dispatchers are cancelled, so their causes
	// are captured where already known.
	for i := range pieces {
		select {
		case <-f.done[i]:
		case <-fctx.Done():
			return fctx.Err()
		}
		var streamErr error
		err := f.errs[i]
		if err == nil {
			streamErr = c.streamPiece(fctx, pieces[i], f.pls[i], sinks)
			err = streamErr
		}
		if err != nil {
			if ctx.Err() == nil {
				hash, _ := spec.Hash()
				return c.incomplete(hash, pieces, i, f, streamErr)
			}
			return err
		}
	}
	return nil
}

// Execute implements campaign.Executor: synchronous fan-out + ordered
// merge. The aggregation reuses engine.Aggregator over the parent
// spec, so the returned Result is the same fold, over the same metrics,
// in the same order as a local execution — bit-identical aggregates.
// Every sink in opts is closed exactly once.
func (c *Coordinator) Execute(ctx context.Context, spec campaign.Spec, opts campaign.ExecOptions) (*campaign.Result, error) {
	agg, err := spec.NewAggregator(opts.KeepPerRun)
	if err != nil {
		return nil, campaign.CloseSinks(err, opts.Sinks...)
	}
	sinks := append([]campaign.Sink{agg}, opts.Sinks...)
	runErr := c.run(ctx, spec, sinks)
	var inc *Incomplete
	if errors.As(runErr, &inc) {
		// The fleet could not finish: flush the caller's sinks so the
		// completed prefix they hold survives, but skip the aggregator
		// — its Close validates completeness, and an incomplete
		// campaign has no validated Result. The *Incomplete travels as
		// the error, joined with any sink close error: a prefix whose
		// flush failed is not in the caller's output, and must not read
		// as if it were.
		return nil, errors.Join(runErr, campaign.CloseSinks(nil, opts.Sinks...))
	}
	if err := campaign.CloseSinks(runErr, sinks...); err != nil {
		return nil, err
	}
	return agg.Result(), nil
}
