package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// blockingBackend blocks every run until its context is cancelled — the
// instrument behind the mid-campaign cancellation tests. It counts the
// runs that started so the "no further backend runs after cancellation"
// guarantee is observable.
type blockingBackend struct {
	started atomic.Int64
}

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) Run(ctx context.Context, _ RunSpec) (*RunResult, error) {
	b.started.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}

// NewRunner returns the backend itself: its Run is safe for concurrent
// use and keeps no per-point state.
func (b *blockingBackend) NewRunner(RunSpec) (Runner, error) { return b, nil }

func (b *blockingBackend) Rebind(RunSpec) error { return nil }

var blocking = &blockingBackend{}

func init() { Register(blocking) }

// countingSink records the events it saw and how often it was closed.
type countingSink struct {
	events []Event
	closed int
	// onEvent, when non-nil, runs after recording each event.
	onEvent func(ev Event)
}

func (s *countingSink) Consume(_ context.Context, ev Event) error {
	s.events = append(s.events, ev)
	if s.onEvent != nil {
		s.onEvent(ev)
	}
	return nil
}

func (s *countingSink) Close() error {
	s.closed++
	return nil
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (plus slack for runtime internals).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak after cancellation: %d before, %d after", before, now)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamCancelMidCampaign is the core cancellation guarantee:
// cancelling the context mid-campaign aborts Execute with a wrapped
// context.Canceled, stops scheduling backend runs, drains the worker
// pool without leaking goroutines, and closes every sink exactly once.
func TestStreamCancelMidCampaign(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const workers = 3
	spec := testCampaign(1, 100)
	spec.Backend = "blocking"
	sink := &countingSink{}
	startedBefore := blocking.started.Load()
	done := make(chan error, 1)
	go func() {
		_, err := spec.Execute(ctx, ExecConfig{Workers: workers, Sinks: []Sink{sink}})
		done <- err
	}()

	// Wait until the pool is actually executing backend runs.
	for blocking.started.Load()-startedBefore < workers {
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-done
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Execute returned %v; want wrapped context.Canceled", err)
	}
	if sink.closed != 1 {
		t.Fatalf("sink closed %d times, want exactly 1", sink.closed)
	}
	if len(sink.events) != 0 {
		t.Fatalf("blocking campaign delivered %d events, want 0", len(sink.events))
	}
	// Execute has returned: the workers are gone, so the started counter
	// must be frozen — no backend run is scheduled after cancellation.
	frozen := blocking.started.Load()
	time.Sleep(20 * time.Millisecond)
	if now := blocking.started.Load(); now != frozen {
		t.Fatalf("backend runs kept starting after Execute returned: %d -> %d", frozen, now)
	}
	if got := frozen - startedBefore; got > workers {
		t.Fatalf("%d backend runs started, want at most the %d pool workers", got, workers)
	}
	waitGoroutines(t, before)
}

// TestStreamCancelDeliversDeterministicPrefix: a campaign cancelled
// from within the event stream still delivers a contiguous prefix of
// the deterministic global (point, replication) order — never a gap,
// never an out-of-order event — and returns the wrapped cancellation.
func TestStreamCancelDeliversDeterministicPrefix(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const reps = 400
	sink := &countingSink{}
	sink.onEvent = func(ev Event) {
		if ev.Rep == 2 {
			cancel()
			// Give the cancellation watcher time to trip the pipeline's
			// failure flag so the abort happens well before the grid is
			// exhausted.
			<-ctx.Done()
		}
	}
	spec := testCampaign(1, reps)
	spec.Ns, spec.Ps = []int64{64}, []int{2}
	_, err := spec.Execute(ctx, ExecConfig{Workers: 4, Sinks: []Sink{sink}})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Execute returned %v; want wrapped context.Canceled", err)
	}
	if sink.closed != 1 {
		t.Fatalf("sink closed %d times, want exactly 1", sink.closed)
	}
	if len(sink.events) < 3 || len(sink.events) >= reps {
		t.Fatalf("saw %d events; want a strict prefix covering at least the cancel point", len(sink.events))
	}
	for i, ev := range sink.events {
		if ev.Point != 0 || ev.Rep != i {
			t.Fatalf("event %d is (point %d, rep %d); prefix must be contiguous in-order", i, ev.Point, ev.Rep)
		}
	}
	waitGoroutines(t, before)
}

// TestExecutePreCancelled: an already-cancelled context performs zero
// backend runs, closes the sinks exactly once and reports the wrapped
// cancellation — on both the live and the replay path.
func TestExecutePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	spec := countingSpec()
	sink := &countingSink{}
	beforeRuns := counting.calls.Load()
	_, err := spec.Execute(ctx, ExecConfig{Sinks: []Sink{sink}})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute under cancelled ctx returned %v; want wrapped context.Canceled", err)
	}
	if sink.closed != 1 {
		t.Fatalf("sink closed %d times, want exactly 1", sink.closed)
	}
	if got := counting.calls.Load() - beforeRuns; got != 0 {
		t.Fatalf("cancelled Execute performed %d backend runs, want 0", got)
	}
}

// TestRunWrapsDeadline: Execute surfaces deadline expiry the same way
// as explicit cancellation.
func TestRunWrapsDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := testCampaign(1, 2).Execute(ctx, ExecConfig{})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Execute returned %v; want wrapped context.DeadlineExceeded", err)
	}
}
