package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Event is one completed run flowing through the results pipeline.
// Events are delivered to sinks in deterministic global order — point 0
// replication 0, point 0 replication 1, … — regardless of worker count
// or completion order, so any sink output is bit-reproducible.
type Event struct {
	Point int // index into the spec's expanded grid (CampaignSpec.Points)
	Rep   int // replication index within the point

	// Spec is the run's spec as executed, with the derived RNGState.
	Spec RunSpec

	// Metrics are the per-run scalars every campaign reports.
	Metrics RunMetrics
}

// Sink consumes the ordered stream of run events. The pipeline invokes
// Consume one call at a time, in global order, so implementations need
// no locking: successive calls may come from different goroutines, but
// each begins after the previous one returned. A Consume error aborts
// the campaign; ctx is the campaign's (or the replaying request's)
// context, so sinks streaming to slow or remote destinations can
// abandon work when the consumer goes away. Close flushes the sink
// after the final event (or after an abort) and is called exactly once.
type Sink interface {
	Consume(ctx context.Context, ev Event) error
	Close() error
}

// campaign is the pipeline's input: a validated spec's expanded grid,
// its replication count and per-run seed derivation, and the execution
// parameters. Only CampaignSpec.Execute builds one, after Validate, so
// stream trusts the grid.
type campaign struct {
	backend      string
	points       []RunSpec
	replications int
	workers      int // 0 selects GOMAXPROCS
	chunkSize    int // 0 auto-sizes per point
	seedFor      func(point, rep int) uint64
}

// stream executes the campaign, emitting every completed run to the
// given sinks instead of materializing results: the worker pool
// executes replication batches (chunks) on per-worker Runners in
// arbitrary completion order, and the worker that completes the chunk
// at the delivery frontier delivers it, with every completed chunk
// behind it, in deterministic (point, replication) order. Delivery is
// the stage shared with cache replay: it hands every chunk to each sink
// — one ConsumePartial per PartialSink, one Consume per run for any
// other sink — so sinks observe the exact sequence a serial execution
// would produce. All sinks are closed before stream returns; the first
// run or sink error aborts the remaining grid and is returned.
//
// Cancelling ctx aborts the campaign: no further backend runs are
// scheduled once cancellation is observed, the worker pool drains
// without leaking goroutines, every sink is still closed exactly once,
// and the returned error wraps ctx.Err() (errors.Is(err,
// context.Canceled) holds). Events already dispatched before the
// cancellation form a prefix of the deterministic global order.
func (c campaign) stream(ctx context.Context, sinks []Sink) error {
	// Every sink is closed exactly once, on success and on every error
	// path alike.
	if err := ctx.Err(); err != nil {
		return closeSinks(sinks, fmt.Errorf("engine: campaign: %w", err))
	}
	be, err := New(c.backend)
	if err != nil {
		return closeSinks(sinks, err)
	}
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reps := c.replications
	// The unit of work and of delivery is a chunk: a (point,
	// replication-range) batch a worker executes end to end on its
	// private execution context.
	chunkSize := c.chunkSize
	if chunkSize <= 0 {
		chunkSize = autoChunkSize(reps, workers)
	}
	if chunkSize > reps {
		chunkSize = reps
	}
	chunksPerPoint := int64(reps+chunkSize-1) / int64(chunkSize)
	totalChunks := int64(len(c.points)) * chunksPerPoint
	if int64(workers) > totalChunks {
		workers = int(totalChunks)
	}
	// chunkAt locates chunk k: replications [repLo, repHi) of point pi.
	chunkAt := func(k int64) (pi, repLo, repHi int) {
		pi = int(k / chunksPerPoint)
		repLo = int(k%chunksPerPoint) * chunkSize
		return pi, repLo, min(repLo+chunkSize, reps)
	}
	// The window bounds how far execution runs ahead of delivery, in
	// chunks: enough slack that fast workers never stall behind one slow
	// chunk, small enough that at most window chunks of completed runs
	// wait for it, however skewed the run durations.
	window := min(max(int64(4*workers), 8), totalChunks)
	d := newDelivery(c.points, c.seedFor, sinks)

	var (
		failed atomic.Bool
		wg     sync.WaitGroup

		// Chunks are claimed and delivered in index order. Everything
		// below is guarded by outMu. A worker claims chunk next only
		// while next < nextOut+window, so completed chunk k waits in
		// ring slot k%window, which chunk k-window has vacated, until
		// it is delivered.
		outMu    sync.Mutex
		outCond  = sync.NewCond(&outMu)
		firstErr error
		next     int64 // the next chunk to claim
		nextOut  int64 // the next chunk to deliver
		ring     = make([][]RunMetrics, window)
		// free holds delivered chunks' buffers for later chunks, so a
		// campaign allocates only as many as it ever has in flight.
		free = make([][]RunMetrics, 0, window)
	)
	fail := func(err error) {
		outMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		failed.Store(true)
		outCond.Broadcast() // release workers waiting on the window
		outMu.Unlock()
	}
	// Cancellation enters the failure protocol: failed stops workers
	// from starting further runs and the broadcast releases any worker
	// parked on the window.
	cancelled := make(chan struct{})
	stopWatch := context.AfterFunc(ctx, func() {
		fail(fmt.Errorf("engine: campaign: %w", ctx.Err()))
		close(cancelled)
	})

	worker := func() {
		var (
			runner   Runner
			runnerPt = -1
		)
		// run executes chunk k, appending its runs to buf; false means
		// the campaign failed before the chunk completed.
		run := func(k int64, buf []RunMetrics) ([]RunMetrics, bool) {
			pi, repLo, repHi := chunkAt(k)
			if runnerPt != pi {
				// The worker's runner is its execution context: the spec
				// validated once per point, the scheduler Reset instead
				// of rebuilt, result buffers pooled in its arena and kept
				// across points by Rebind.
				var err error
				if runner == nil {
					runner, err = be.NewRunner(c.points[pi])
				} else {
					err = runner.Rebind(c.points[pi])
				}
				if err != nil {
					fail(fmt.Errorf("engine: point %d: %w", pi, err))
					return buf, false
				}
				runnerPt = pi
			}
			spec := c.points[pi]
			for rep := repLo; rep < repHi; rep++ {
				if failed.Load() {
					return buf, false
				}
				spec.RNGState = c.seedFor(pi, rep)
				res, err := runner.Run(ctx, spec)
				if err != nil {
					fail(fmt.Errorf("engine: point %d replication %d: %w", pi, rep, err))
					return buf, false
				}
				buf = append(buf, pointMetrics(spec, res))
			}
			return buf, true
		}

		outMu.Lock()
		defer outMu.Unlock()
		for {
			for next < totalChunks && next >= nextOut+window && !failed.Load() {
				outCond.Wait()
			}
			if next >= totalChunks || failed.Load() {
				return
			}
			k := next
			next++
			var buf []RunMetrics
			if n := len(free); n > 0 {
				buf, free = free[n-1], free[:n-1]
			}
			outMu.Unlock()
			if buf == nil {
				buf = make([]RunMetrics, 0, chunkSize)
			}
			buf, ok := run(k, buf)
			outMu.Lock()
			// An incomplete chunk exists only after fail, so it is never
			// delivered and the delivered stream stays a contiguous
			// prefix.
			if !ok {
				return
			}
			ring[k%window] = buf
			// Deliver the frontier while it is ready, one chunk at a time
			// with the lock released. The chunk being delivered has left
			// its slot and nextOut moves past it only afterwards, so no
			// other worker finds a ready frontier meanwhile: sinks see one
			// call at a time, in order. Advancing after each chunk lets a
			// slow sink hold back no more than the window.
			for !failed.Load() && ring[nextOut%window] != nil {
				slot := nextOut % window
				out := ring[slot]
				ring[slot] = nil
				pi, repLo, _ := chunkAt(nextOut)
				outMu.Unlock()
				if err := d.deliver(ctx, pi, repLo, out); err != nil {
					fail(err)
				}
				outMu.Lock()
				free = append(free, out[:0])
				nextOut++
				outCond.Broadcast()
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	if !stopWatch() {
		<-cancelled // the context ended first: wait until fail recorded it
	}
	return closeSinks(sinks, firstErr)
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
// about chunksPerWorker chunks of every point per worker, so a costly
// point splits across the workers as evenly as a cheap one, and at most
// maxChunk runs, which bounds the completed runs the window can hold.
// Chunks never span points. Chunk size affects scheduling only — the
// delivered stream is bit-identical for every value.
func autoChunkSize(reps, workers int) int {
	const (
		chunksPerWorker = 8
		maxChunk        = 1024
	)
	return min(max(reps/chunksPerWorker/workers, 1), maxChunk)
}
