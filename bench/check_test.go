package main

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/refdata"
)

// TestSlicedCheck checks every slice against its pin or its reference,
// computing the missing references concurrently, and remembers them so a
// second check computes none.
func TestSlicedCheck(t *testing.T) {
	s := newSliced("w", 10)
	for k := 0; k < 10; k++ {
		s.record(k, fmt.Sprint("d", k))
	}
	s.record(3, "wrong")
	e := env{seed: 1, scale: 1, pins: map[string]string{pinKey("w", 1, 1, 0): "d0"}, refs: make(map[string]string)}
	var calls atomic.Int64
	ref := func(k int) (string, error) {
		calls.Add(1)
		return fmt.Sprint("d", k), nil
	}
	failed, problems, err := s.check(e, 1, ref)
	if err != nil || failed != 1 || len(problems) != 1 || calls.Load() != 9 {
		t.Fatalf("check = %d failed, %v, %v after %d references; want 1 failed (slice 3), 9 references", failed, problems, err, calls.Load())
	}
	if _, _, err := s.check(e, 1, ref); err != nil || calls.Load() != 9 {
		t.Errorf("second check: %v, %d references in all; want the remembered 9", err, calls.Load())
	}
	broken := newSliced("w", 2)
	broken.record(1, "d1")
	if _, _, err := broken.check(env{seed: 1, scale: 1}, 1, func(int) (string, error) { return "", errors.New("boom") }); err == nil {
		t.Error("a failed reference was not reported")
	}
}

func TestPool(t *testing.T) {
	// Samples {1, 2, 3} and {4, 5}: union mean 3, sample std sqrt(2.5).
	got := pool([]metrics.Summary{{N: 3, Mean: 2, Std: 1}, {N: 2, Mean: 4.5, Std: math.Sqrt(0.5)}})
	if got.N != 5 || got.Mean != 3 || math.Abs(got.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("pool = %+v, want N 5, mean 3, std %v", got, math.Sqrt(2.5))
	}
}

// TestHagerupPaperCheck checks the 15 % cut: strict on every cell but
// GSS at n=8192, p=2, which may lie outside it by up to three standard
// errors; FAC at p=2 is not judged.
func TestHagerupPaperCheck(t *testing.T) {
	// Every cell gets a standard error of the difference of 4.5 % of its
	// reference over 1000 runs, so the noisy cell's band is 15 % + 13.5 %.
	for _, tc := range []struct {
		pt   engine.RunSpec
		rel  float64
		fail bool
	}{
		{engine.RunSpec{Technique: "GSS", N: 8192, P: 2}, -0.10, false},
		{engine.RunSpec{Technique: "GSS", N: 8192, P: 2}, -0.25, false},
		{engine.RunSpec{Technique: "GSS", N: 8192, P: 2}, -0.30, true},
		{engine.RunSpec{Technique: "GSS", N: 8192, P: 2}, +0.40, true},
		{engine.RunSpec{Technique: "GSS", N: 1024, P: 2}, -0.14, false},
		{engine.RunSpec{Technique: "GSS", N: 1024, P: 2}, -0.16, true},
		{engine.RunSpec{Technique: "FAC2", N: 8192, P: 64}, +0.16, true},
		{engine.RunSpec{Technique: "FAC", N: 8192, P: 2}, +0.90, false},
	} {
		ref, ok := refdata.Wasted(tc.pt.Technique, tc.pt.N, tc.pt.P)
		if !ok {
			t.Fatalf("%+v: no reference value", tc.pt)
		}
		std := 0.045 * ref * math.Sqrt(1000) / math.Sqrt2
		cell := metrics.Summary{N: 1000, Mean: ref * (1 + tc.rel), Std: std}
		bad := hagerupPaperChecks([]engine.RunSpec{tc.pt}, []metrics.Summary{cell})
		if (len(bad) > 0) != tc.fail {
			t.Errorf("%s n=%d p=%d rel %+.2f: problems %v, want failure %v", tc.pt.Technique, tc.pt.N, tc.pt.P, tc.rel, bad, tc.fail)
		}
	}
}
