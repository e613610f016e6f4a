package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// These tests pin the batched (chunked) pipeline's cancellation
// behavior under the race detector: cancelling mid-campaign with
// workers > 1 and any chunk size must drain every worker without
// leaking goroutines, close the sinks exactly once, and deliver only a
// contiguous prefix of the deterministic event order. They live in
// package engine_test because they share testutil's gate backend with
// the jobs and service cancellation tests (testutil imports engine).

var batchGate = testutil.NewGateBackend("batch-cancel-gate")

func init() { engine.Register(batchGate) }

// orderedSink records the ordered event stream and its close count.
// The pipeline calls Consume one call at a time, from whichever worker
// delivers the frontier, and Execute returning happens-after Close, so
// the test may read the fields once Execute is done.
type orderedSink struct {
	mu     sync.Mutex
	events []engine.Event
	closed int
}

func (s *orderedSink) Consume(_ context.Context, ev engine.Event) error {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	return nil
}

func (s *orderedSink) Close() error {
	s.mu.Lock()
	s.closed++
	s.mu.Unlock()
	return nil
}

func (s *orderedSink) snapshot() ([]engine.Event, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]engine.Event(nil), s.events...), s.closed
}

// batchGateSpec is two points of reps replications on the gate backend.
func batchGateSpec(reps int) engine.CampaignSpec {
	return engine.CampaignSpec{
		Backend:      "batch-cancel-gate",
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{256},
		Ps:           []int{4},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.25,
		Replications: reps,
	}
}

// execute runs spec in the background and returns the channel its
// error arrives on.
func execute(ctx context.Context, spec engine.CampaignSpec, workers, chunk int, sink engine.Sink) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := spec.Execute(ctx, engine.ExecConfig{Workers: workers, ChunkSize: chunk, Sinks: []engine.Sink{sink}})
		done <- err
	}()
	return done
}

// parkedWorkers is the number of workers that actually claim a chunk
// and block inside a gated run: the pipeline clamps the pool to the
// total chunk count, so an oversized chunk leaves one chunk per point.
func parkedWorkers(workers, points, reps, chunk int) int64 {
	if chunk <= 0 || chunk > reps {
		chunk = reps // oversized clamps; auto never exceeds reps either
	}
	chunks := points * ((reps + chunk - 1) / chunk)
	if chunks < workers {
		return int64(chunks)
	}
	return int64(workers)
}

// checkPrefix asserts the events form a contiguous prefix of the
// deterministic global (point, replication) order.
func checkPrefix(t *testing.T, events []engine.Event, reps int) {
	t.Helper()
	for i, ev := range events {
		if want := i / reps; ev.Point != want || ev.Rep != i%reps {
			t.Fatalf("event %d is (point %d, rep %d); want contiguous prefix order (point %d, rep %d)",
				i, ev.Point, ev.Rep, want, i%reps)
		}
	}
}

// TestBatchedStreamCancelMidCampaign: for every chunk-size shape — auto,
// single-run chunks, uneven chunks, one chunk far larger than the
// replication count — cancelling while all workers are blocked inside
// backend runs aborts Execute with the wrapped cancellation, drains the
// pool leak-free and closes the sink exactly once.
func TestBatchedStreamCancelMidCampaign(t *testing.T) {
	const (
		workers = 4
		reps    = 40
	)
	for _, chunk := range []int{0, 1, 3, 1000} {
		t.Run(chunkName(chunk), func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			batchGate.Reset()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			spec := batchGateSpec(reps)
			sink := &orderedSink{}
			startedBefore := batchGate.Started.Load()
			done := execute(ctx, spec, workers, chunk, sink)

			// Every effective worker claims a chunk and parks inside its
			// first run.
			want := parkedWorkers(workers, spec.GridPoints(), reps, chunk)
			for batchGate.Started.Load()-startedBefore < want {
				time.Sleep(time.Millisecond)
			}
			cancel()
			err := <-done
			if err == nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Execute returned %v; want wrapped context.Canceled", err)
			}
			events, closed := sink.snapshot()
			if closed != 1 {
				t.Fatalf("sink closed %d times, want exactly 1", closed)
			}
			if len(events) != 0 {
				t.Fatalf("gated campaign delivered %d events before release, want 0", len(events))
			}
		})
	}
}

// TestBatchedStreamCancelReleaseRace races a mid-campaign cancellation
// against the gate opening: whichever wins, Execute must terminate, the
// sink closes exactly once, and the delivered events are a contiguous
// prefix (the full grid when the release wins end to end).
func TestBatchedStreamCancelReleaseRace(t *testing.T) {
	const (
		workers = 4
		reps    = 30
	)
	for _, chunk := range []int{0, 1, 3, 1000} {
		t.Run(chunkName(chunk), func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			batchGate.Reset()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			spec := batchGateSpec(reps)
			sink := &orderedSink{}
			startedBefore := batchGate.Started.Load()
			done := execute(ctx, spec, workers, chunk, sink)

			want := parkedWorkers(workers, spec.GridPoints(), reps, chunk)
			for batchGate.Started.Load()-startedBefore < want {
				time.Sleep(time.Millisecond)
			}
			var race sync.WaitGroup
			race.Add(2)
			go func() { defer race.Done(); batchGate.Release() }()
			go func() { defer race.Done(); cancel() }()
			race.Wait()

			err := <-done
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("raced Execute returned %v; want nil or wrapped context.Canceled", err)
			}
			events, closed := sink.snapshot()
			if closed != 1 {
				t.Fatalf("sink closed %d times, want exactly 1", closed)
			}
			checkPrefix(t, events, reps)
			if err == nil && len(events) != 2*reps {
				t.Fatalf("completed campaign delivered %d events, want %d", len(events), 2*reps)
			}
		})
	}
}

func chunkName(chunk int) string {
	switch chunk {
	case 0:
		return "chunk=auto"
	case 1:
		return "chunk=1"
	case 1000:
		return "chunk=oversized"
	default:
		return "chunk=3"
	}
}
