package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/testutil"
)

var gateDrain = testutil.NewGateBackend("jobs-gate-drain")

func init() { engine.Register(gateDrain) }

// TestDrainRefusesAndWaitIdleFinishes covers the graceful-shutdown
// halves: after Drain, new submissions fail with ErrDraining while the
// running job keeps executing and stays fully observable; WaitIdle
// blocks until that job lands and honors its context while blocked.
func TestDrainRefusesAndWaitIdleFinishes(t *testing.T) {
	gateDrain.Reset() // re-arm for -count>1 reruns
	m := NewManager(Config{})
	defer m.Close()

	j, _, err := m.Submit(gatedSpec(gateDrain.Name(), 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.Snapshot().ID, StateRunning)

	if m.Draining() {
		t.Fatal("fresh manager reports draining")
	}
	m.Drain()
	m.Drain() // idempotent
	if !m.Draining() {
		t.Fatal("Drain did not latch")
	}
	if _, _, err := m.Submit(gatedSpec(gateDrain.Name(), 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}

	// WaitIdle must respect its context while the gated job holds on.
	short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	err = m.WaitIdle(short)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitIdle with a live job = %v, want deadline exceeded", err)
	}

	// The running job is untouched by the drain: release the gate and
	// both the job and WaitIdle complete.
	gateDrain.Release()
	idle, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitIdle(idle); err != nil {
		t.Fatalf("WaitIdle after release: %v", err)
	}
	snap := waitState(t, m, j.Snapshot().ID, StateDone)
	if snap.Error != "" {
		t.Fatalf("drained job finished with error %q", snap.Error)
	}
}
