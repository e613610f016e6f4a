// Package testutil holds the shared instrumentation behind the
// engine/jobs/service cancellation and singleflight tests: a gated
// counting backend whose runs block until released (or until their
// context is cancelled), and a goroutine-leak check.
package testutil

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// GateBackend is an engine backend whose runs block on a gate: every
// Run announces itself via Started, then waits until Release is called
// or its context is cancelled. Completed runs delegate to the fast sim
// backend, so released campaigns produce real, deterministic results.
//
// Register it once per process under a unique name:
//
//	var gate = testutil.NewGateBackend("mytest-gate")
//	func init() { engine.Register(gate) }
type GateBackend struct {
	name    string
	Started atomic.Int64 // runs that entered the gate
	Runs    atomic.Int64 // runs that completed after release

	mu       sync.Mutex
	release  chan struct{}
	released bool
}

// NewGateBackend returns an unreleased gate backend with the given
// registry name. The caller must engine.Register it.
func NewGateBackend(name string) *GateBackend {
	return &GateBackend{name: name, release: make(chan struct{})}
}

// Name implements engine.Backend.
func (b *GateBackend) Name() string { return b.name }

// Run implements engine.Backend: block until released or cancelled.
func (b *GateBackend) Run(ctx context.Context, spec engine.RunSpec) (*engine.RunResult, error) {
	b.Started.Add(1)
	b.mu.Lock()
	ch := b.release
	b.mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	be, err := engine.New("sim")
	if err != nil {
		return nil, err
	}
	res, err := be.Run(ctx, spec)
	if err == nil {
		b.Runs.Add(1)
	}
	return res, err
}

// NewRunner implements engine.Backend: Run is safe for concurrent use,
// so the backend is its own runner.
func (b *GateBackend) NewRunner(engine.RunSpec) (engine.Runner, error) { return b, nil }

// Rebind implements engine.Runner; the gate keeps no per-point state.
func (b *GateBackend) Rebind(engine.RunSpec) error { return nil }

// Release opens the gate for all current and future runs. Idempotent.
func (b *GateBackend) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.released {
		b.released = true
		close(b.release)
	}
}

// Reset re-arms the gate for the next test section. It must not race
// with in-flight runs.
func (b *GateBackend) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.release = make(chan struct{})
	b.released = false
}

// CheckGoroutines captures the current goroutine count and returns a
// function that fails the test if the count has not settled back to the
// baseline (within slack 2, polling up to 2 s — background runtime
// goroutines come and go). Use as:
//
//	defer testutil.CheckGoroutines(t)()
func CheckGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, now)
	}
}
