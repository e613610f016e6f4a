package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/rng"
)

// Event is one completed run flowing through the results pipeline.
// Events are delivered to sinks in deterministic global order — point 0
// replication 0, point 0 replication 1, … — regardless of worker count
// or completion order, so any sink output is bit-reproducible.
type Event struct {
	Point int // index into Campaign.Points
	Rep   int // replication index within the point

	// Spec is the run's spec as executed, with the derived RNGState.
	Spec RunSpec

	// Metrics are the per-run scalars every campaign reports.
	Metrics RunMetrics
}

// Sink consumes the ordered stream of run events. The pipeline invokes
// Consume from a single goroutine, so implementations need no locking.
// A Consume error aborts the campaign; ctx is the campaign's (or the
// replaying request's) context, so sinks streaming to slow or remote
// destinations can abandon work when the consumer goes away. Close
// flushes the sink after the final event (or after an abort) and is
// called exactly once.
type Sink interface {
	Consume(ctx context.Context, ev Event) error
	Close() error
}

// Stream executes the campaign, emitting every completed run to the
// given sinks instead of materializing results. This is the primitive
// Run is built on: the worker pool executes replication batches
// (chunks) on per-worker Runners in arbitrary completion order, each
// chunk travels as one pooled []RunMetrics, a reorder stage restores
// deterministic (point, replication) order at chunk granularity, and
// the delivery stage shared with cache replay hands every chunk to
// each sink — one ConsumePartial per PartialSink, one Consume per run
// for any other sink — so sinks observe the exact sequence a serial
// execution would produce. All sinks are closed before Stream returns;
// the first run or sink error aborts the remaining grid and is
// returned.
//
// Cancelling ctx aborts the campaign: no further backend runs are
// scheduled once cancellation is observed, the worker pool drains
// without leaking goroutines, every sink is still closed exactly once,
// and the returned error wraps ctx.Err() (errors.Is(err,
// context.Canceled) holds). Events already dispatched before the
// cancellation form a prefix of the deterministic global order.
func (c Campaign) Stream(ctx context.Context, sinks ...Sink) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Every sink is closed exactly once, on success and on every error
	// path alike.
	if err := ctx.Err(); err != nil {
		return closeSinks(sinks, fmt.Errorf("engine: campaign: %w", err))
	}
	if len(c.Points) == 0 {
		return closeSinks(sinks, fmt.Errorf("engine: campaign has no points"))
	}
	if c.Replications <= 0 {
		return closeSinks(sinks, fmt.Errorf("engine: Replications must be positive, got %d", c.Replications))
	}
	be, err := New(c.Backend)
	if err != nil {
		return closeSinks(sinks, err)
	}
	for i, pt := range c.Points {
		if err := pt.Validate(); err != nil {
			return closeSinks(sinks, fmt.Errorf("engine: campaign point %d: %w", i, err))
		}
	}
	seedFor := c.SeedFor
	if seedFor == nil {
		seedFor = func(point, rep int) uint64 {
			return rng.RunSeed(c.Points[point].RNGState, rep)
		}
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reps := c.Replications
	total := len(c.Points) * reps
	if workers > total {
		workers = total
	}
	// The unit of work is a chunk: a (point, replication-range) batch a
	// worker executes end to end on its private execution context. One
	// channel send and one reorder pass per chunk — not per run —
	// amortizes pipeline overhead to ~0 per run once chunks carry tens
	// of replications.
	chunkSize := c.ChunkSize
	if chunkSize <= 0 {
		chunkSize = autoChunkSize(total, reps, workers)
	}
	if chunkSize > reps {
		chunkSize = reps
	}
	chunksPerPoint := (reps + chunkSize - 1) / chunkSize
	totalChunks := int64(len(c.Points)) * int64(chunksPerPoint)
	if int64(workers) > totalChunks {
		workers = int(totalChunks)
	}
	d := newDelivery(c.Points, seedFor, sinks)
	// runPool recycles the per-chunk metrics buffers: the reorder stage
	// returns each buffer after delivering its chunk, so the steady state
	// allocates nothing per chunk.
	runPool := sync.Pool{New: func() any {
		b := make([]RunMetrics, 0, chunkSize)
		return &b
	}}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup

		// nextOut is the next chunk index the reorder stage dispatches
		// (its published value; the reorder goroutine's private counter
		// runs ahead while draining). Workers wait before executing
		// chunks more than window indices ahead of it, which bounds the
		// reorder ring under arbitrary run-duration skew (one
		// pathologically slow chunk cannot make the buffer absorb the
		// whole remaining grid).
		outMu   sync.Mutex
		outCond = sync.NewCond(&outMu)
		nextOut int64
	)
	// The in-flight window is in chunk units: enough slack that fast
	// workers never stall behind one slow chunk, small enough that the
	// ring buffers at most window chunks of completed runs.
	window := int64(4 * workers)
	if window < 8 {
		window = 8
	}
	if window > totalChunks {
		window = totalChunks
	}
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
		outMu.Lock()
		outCond.Broadcast() // release workers waiting on the window
		outMu.Unlock()
	}

	// The watcher translates context cancellation into the pipeline's
	// failure protocol: failed stops workers from claiming further runs
	// and the broadcast releases any worker parked on the reorder window.
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			fail(fmt.Errorf("engine: campaign: %w", ctx.Err()))
		case <-watchDone:
		}
	}()

	// chunkDone carries one completed (possibly incomplete, on abort)
	// chunk from a worker to the reorder stage: the metrics of
	// replications [repLo, repLo+len(*runs)) of point pi, in a pooled
	// buffer.
	type chunkDone struct {
		idx   int64 // global chunk index
		pi    int
		repLo int
		runs  *[]RunMetrics
	}
	chunks := make(chan chunkDone, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				runner   Runner
				runnerPt = -1
			)
			for {
				k := next.Add(1) - 1
				if k >= totalChunks || failed.Load() {
					return
				}
				// A worker holds no completed runs while parked (chunks
				// are handed over as soon as they finish), so waiting on
				// the window can never starve the reorder stage.
				outMu.Lock()
				for k >= nextOut+window && !failed.Load() {
					outCond.Wait()
				}
				outMu.Unlock()
				if failed.Load() {
					return
				}
				pi := int(k / int64(chunksPerPoint))
				repLo := int(k%int64(chunksPerPoint)) * chunkSize
				repHi := repLo + chunkSize
				if repHi > reps {
					repHi = reps
				}
				if runnerPt != pi {
					// The worker's runner is its execution context: the
					// spec validated once per point, the scheduler Reset
					// instead of rebuilt, result buffers pooled in its
					// arena and kept across points by Rebind.
					var err error
					if runner == nil {
						runner, err = be.NewRunner(c.Points[pi])
					} else {
						err = runner.Rebind(c.Points[pi])
					}
					if err != nil {
						fail(fmt.Errorf("engine: point %d: %w", pi, err))
						return
					}
					runnerPt = pi
				}
				buf := runPool.Get().(*[]RunMetrics)
				runs := (*buf)[:0]
				spec := c.Points[pi]
				aborted := false
				for rep := repLo; rep < repHi; rep++ {
					if failed.Load() {
						aborted = true
						break
					}
					spec.RNGState = seedFor(pi, rep)
					res, err := runner.Run(ctx, spec)
					if err != nil {
						fail(fmt.Errorf("engine: point %d replication %d: %w", pi, rep, err))
						aborted = true
						break
					}
					runs = append(runs, pointMetrics(spec, res))
				}
				*buf = runs // retain the grown backing array for reuse
				// An incomplete chunk is only produced after fail(), whose
				// atomic store happens before this send — the reorder
				// stage observes failed and never delivers it, so the
				// delivered stream stays a contiguous prefix.
				chunks <- chunkDone{idx: k, pi: pi, repLo: repLo, runs: buf}
				if aborted {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(chunks)
	}()

	// Reorder completed chunks into global order and deliver them. Runs
	// within a chunk are already in replication order, so ordering the
	// chunks orders the whole stream. The worker-side window bounds
	// in-flight chunk indices to [nextOut, nextOut+window), so slot
	// k%window is collision-free. nextOutLocal is the reorder stage's
	// private cursor, published to nextOut (with one broadcast) once per
	// received chunk that advances it.
	var (
		ring         = make([]chunkDone, window)
		present      = make([]bool, window)
		nextOutLocal int64
	)
	for cd := range chunks {
		slot := cd.idx % window
		ring[slot] = cd
		present[slot] = true
		advanced := false
		for {
			slot := nextOutLocal % window
			if !present[slot] {
				break
			}
			out := ring[slot]
			ring[slot] = chunkDone{}
			present[slot] = false
			nextOutLocal++
			advanced = true
			if !failed.Load() { // drain without delivering after an abort
				if err := d.deliver(ctx, out.pi, out.repLo, *out.runs); err != nil {
					fail(err)
				}
			}
			*out.runs = (*out.runs)[:0]
			runPool.Put(out.runs)
		}
		if advanced {
			outMu.Lock()
			nextOut = nextOutLocal
			outCond.Broadcast()
			outMu.Unlock()
		}
	}
	// All workers and the consumer loop are done; retire the watcher so
	// no fail() can run concurrently with reading firstErr.
	close(watchDone)
	watch.Wait()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	return closeSinks(sinks, err)
}

// closeSinks closes every sink exactly once, preserving the first error.
func closeSinks(sinks []Sink, first error) error {
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = fmt.Errorf("engine: sink close: %w", err)
		}
	}
	return first
}

// autoChunkSize picks the replication-batch size when the caller didn't:
// large enough that the per-chunk pipeline overhead (one channel send,
// one reorder pass, at most one broadcast) amortizes to ~0 per run,
// small enough to keep ~8 chunks per worker in flight for load balance.
// Chunks never span points, so the result is capped at the per-point
// replication count, and a hard ceiling bounds how many completed
// runs the reorder window can buffer. Chunk size affects scheduling
// only — the delivered stream is bit-identical for every value.
func autoChunkSize(total, reps, workers int) int {
	const (
		chunksPerWorker = 8
		maxChunk        = 1024
	)
	c := total / (workers * chunksPerWorker)
	if c < 1 {
		c = 1
	}
	if c > maxChunk {
		c = maxChunk
	}
	if c > reps {
		c = reps
	}
	return c
}

// aggregateSink folds the delivered runs into per-point Aggregates —
// the one aggregation implementation behind Campaign.Run, CampaignSpec
// execution, cache replay and the client-side Aggregator. Runs arrive
// in replication order, so the per-run scalars (32 bytes per run, not
// full RunResults) buffer in the exact sequence a serial execution
// produces; summarizing them yields aggregates bit-identical to the
// historical buffered path. The online wasted-time accumulators feed
// the campaign's streaming Overall roll-up.
type aggregateSink struct {
	points     []RunSpec
	reps       int
	keepPerRun bool // expose per-run metrics in the Aggregates

	wasted []metrics.Accumulator
	ops    []int64
	perRun [][]RunMetrics
}

func newAggregateSink(points []RunSpec, reps int, keepPerRun bool) *aggregateSink {
	if reps < 0 {
		reps = 0 // Stream rejects the campaign before any run is delivered
	}
	s := &aggregateSink{
		points:     points,
		reps:       reps,
		keepPerRun: keepPerRun,
		wasted:     make([]metrics.Accumulator, len(points)),
		ops:        make([]int64, len(points)),
		perRun:     make([][]RunMetrics, len(points)),
	}
	for i := range points {
		s.perRun[i] = make([]RunMetrics, 0, reps)
	}
	return s
}

// Consume folds one event. Besides the order check every fold makes, it
// rejects an event whose cell (technique, n, p) is not its point's: a
// decoded JSONL row from another grid must not be folded in silently.
func (s *aggregateSink) Consume(_ context.Context, ev Event) error {
	if pi := ev.Point; pi >= 0 && pi < len(s.points) {
		if pt := s.points[pi]; ev.Spec.Technique != pt.Technique || ev.Spec.N != pt.N || ev.Spec.P != pt.P {
			return fmt.Errorf("engine: aggregate sink: point %d replication %d is %s n=%d p=%d, want %s n=%d p=%d",
				pi, ev.Rep, ev.Spec.Technique, ev.Spec.N, ev.Spec.P, pt.Technique, pt.N, pt.P)
		}
	}
	return s.fold(ev.Point, ev.Rep, []RunMetrics{ev.Metrics})
}

// ConsumePartial implements PartialSink: one call folds a whole chunk.
func (s *aggregateSink) ConsumePartial(_ context.Context, p MetricsPartial) error {
	return s.fold(p.Point, p.RepLo, p.Runs)
}

// fold appends the metrics of replications [repLo, repLo+len(runs)) of
// point pi. Requiring repLo to equal the count seen so far, together
// with Close's full-count check, catches every skipped or doubled run.
func (s *aggregateSink) fold(pi, repLo int, runs []RunMetrics) error {
	if pi < 0 || pi >= len(s.points) {
		return fmt.Errorf("engine: aggregate sink: point %d out of range", pi)
	}
	if repLo != len(s.perRun[pi]) {
		return fmt.Errorf("engine: aggregate sink: point %d got replication %d, want %d (runs out of order)",
			pi, repLo, len(s.perRun[pi]))
	}
	s.perRun[pi] = append(s.perRun[pi], runs...)
	for _, m := range runs {
		s.wasted[pi].Add(m.Wasted)
		s.ops[pi] += m.SchedOps
	}
	return nil
}

func (s *aggregateSink) Close() error {
	for pi := range s.points {
		if got := len(s.perRun[pi]); got != s.reps {
			return fmt.Errorf("engine: aggregate sink: point %d saw %d of %d replications", pi, got, s.reps)
		}
	}
	return nil
}

// Aggregates assembles the final per-point aggregates by summarizing the
// retained per-run scalars in replication order — bit-identical to the
// historical buffered path for every statistic, including the two-pass
// standard deviation and the median.
func (s *aggregateSink) Aggregates() []Aggregate {
	out := make([]Aggregate, len(s.points))
	vals := make([]float64, s.reps)
	summarize := func(runs []RunMetrics, get func(RunMetrics) float64) metrics.Summary {
		for i, m := range runs {
			vals[i] = get(m)
		}
		return metrics.Summarize(vals)
	}
	for pi := range s.points {
		runs := s.perRun[pi]
		agg := Aggregate{
			Spec:     s.points[pi],
			Wasted:   summarize(runs, func(m RunMetrics) float64 { return m.Wasted }),
			Makespan: summarize(runs, func(m RunMetrics) float64 { return m.Makespan }),
			Speedup:  summarize(runs, func(m RunMetrics) float64 { return m.Speedup }),
			MeanOps:  float64(s.ops[pi]) / float64(s.reps),
		}
		if s.keepPerRun {
			agg.PerRun = runs
		}
		out[pi] = agg
	}
	return out
}

// Overall merges the per-point wasted-time accumulators in point order —
// a deterministic cross-partition roll-up of the whole campaign.
func (s *aggregateSink) Overall() metrics.Accumulator {
	var a metrics.Accumulator
	for pi := range s.points {
		a.Merge(s.wasted[pi])
	}
	return a
}
