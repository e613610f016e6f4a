package engine

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/metrics"
)

// randomEntry builds a (perRun, result) pair with adversarial float
// content: ordinary values mixed with -0, ±Inf and NaN payloads, all of
// which the binary codec must round-trip bit-exactly.
func randomEntry(r *rand.Rand, points, reps int) ([][]RunMetrics, *CampaignResult) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-308, -1e308}
	f := func() float64 {
		if r.Intn(4) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	perRun := make([][]RunMetrics, points)
	for pi := range perRun {
		perRun[pi] = make([]RunMetrics, reps)
		for rep := range perRun[pi] {
			perRun[pi][rep] = RunMetrics{Wasted: f(), Makespan: f(), Speedup: f(), SchedOps: r.Int63()}
		}
	}
	sum := func() metrics.Summary {
		return metrics.Summary{N: reps, Mean: f(), Std: f(), Min: f(), Max: f(), Median: f()}
	}
	res := &CampaignResult{
		Aggregates: make([]Aggregate, points),
		Overall:    metrics.Accumulator{Count: int64(points * reps), Sum: f(), MeanV: f(), M2: f(), MinV: f(), MaxV: f()},
	}
	for pi := range res.Aggregates {
		res.Aggregates[pi] = Aggregate{Wasted: sum(), Makespan: sum(), Speedup: sum(), MeanOps: f()}
	}
	return perRun, res
}

// sameBits compares float64s by bit pattern, so NaN == NaN and -0 != +0.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameMetricsBits(a, b RunMetrics) bool {
	return sameBits(a.Wasted, b.Wasted) && sameBits(a.Makespan, b.Makespan) &&
		sameBits(a.Speedup, b.Speedup) && a.SchedOps == b.SchedOps
}

// TestCacheCodecRoundTrip is the codec's property test: across many
// random grids — including degenerate shapes and adversarial float
// values — encode → decode reproduces every per-run record and every
// snapshot field bit-exactly.
func TestCacheCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20170601))
	shapes := [][2]int{{1, 1}, {1, 7}, {5, 1}, {3, 4}, {8, 16}, {2, 100}}
	for iter := 0; iter < 50; iter++ {
		shape := shapes[iter%len(shapes)]
		points, reps := shape[0], shape[1]
		perRun, res := randomEntry(r, points, reps)
		key := "spec-hash-" + string(rune('a'+iter%26))

		data := encodeCacheEntry(key, perRun, res)
		ent, ok := decodeCacheEntry(data, key, points, reps)
		if !ok {
			t.Fatalf("iter %d: freshly encoded entry does not decode", iter)
		}
		if ent.snap == nil {
			t.Fatalf("iter %d: snapshot section missing", iter)
		}

		got := ent.perRunMetrics()
		for pi := range perRun {
			for rep := range perRun[pi] {
				if !sameMetricsBits(got[pi][rep], perRun[pi][rep]) {
					t.Fatalf("iter %d: point %d rep %d: %+v != %+v", iter, pi, rep, got[pi][rep], perRun[pi][rep])
				}
			}
		}

		specs := make([]RunSpec, points)
		back := ent.snap.result(specs)
		if o, w := back.Overall, res.Overall; o.Count != w.Count || !sameBits(o.Sum, w.Sum) ||
			!sameBits(o.MeanV, w.MeanV) || !sameBits(o.M2, w.M2) ||
			!sameBits(o.MinV, w.MinV) || !sameBits(o.MaxV, w.MaxV) {
			t.Fatalf("iter %d: overall accumulator did not round-trip", iter)
		}
		for pi := range res.Aggregates {
			w, g := res.Aggregates[pi], back.Aggregates[pi]
			for _, pair := range [][2]metrics.Summary{{w.Wasted, g.Wasted}, {w.Makespan, g.Makespan}, {w.Speedup, g.Speedup}} {
				a, b := pair[0], pair[1]
				if a.N != b.N || !sameBits(a.Mean, b.Mean) || !sameBits(a.Std, b.Std) ||
					!sameBits(a.Min, b.Min) || !sameBits(a.Max, b.Max) || !sameBits(a.Median, b.Median) {
					t.Fatalf("iter %d point %d: summary did not round-trip: %+v != %+v", iter, pi, b, a)
				}
			}
			if !sameBits(w.MeanOps, g.MeanOps) {
				t.Fatalf("iter %d point %d: MeanOps did not round-trip", iter, pi)
			}
		}
	}
}

// TestCacheCodecRejectsTampering: every class of damage — wrong key,
// wrong grid shape, truncation, a single flipped bit anywhere — must
// demote the entry to a miss, never decode to plausible-but-wrong data.
func TestCacheCodecRejectsTampering(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	perRun, res := randomEntry(r, 2, 3)
	data := encodeCacheEntry("the-key", perRun, res)

	if _, ok := decodeCacheEntry(data, "other-key", 2, 3); ok {
		t.Error("entry decoded under a different spec hash")
	}
	if _, ok := decodeCacheEntry(data, "the-key", 3, 3); ok {
		t.Error("entry decoded with wrong point count")
	}
	if _, ok := decodeCacheEntry(data, "the-key", 2, 4); ok {
		t.Error("entry decoded with wrong replication count")
	}
	for _, cut := range []int{1, 7, len(data) / 2, len(data) - 1} {
		if _, ok := decodeCacheEntry(data[:cut], "the-key", 2, 3); ok {
			t.Errorf("entry truncated to %d bytes decoded", cut)
		}
	}
	// Flip one bit at a spread of offsets, including magic, header,
	// snapshot, records and the checksum itself.
	for off := 0; off < len(data); off += 11 {
		tampered := append([]byte(nil), data...)
		tampered[off] ^= 0x10
		if _, ok := decodeCacheEntry(tampered, "the-key", 2, 3); ok {
			t.Errorf("bit flip at offset %d went undetected", off)
		}
	}
}

// TestCacheBinaryCorruptionFallsBackToLiveRun is the end-to-end recovery
// test for the binary format: a campaign facing a truncated or bit-flipped
// version-2 entry re-runs live and overwrites the damage.
func TestCacheBinaryCorruptionFallsBackToLiveRun(t *testing.T) {
	spec := countingSpec()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Produce a genuine version-2 entry to damage.
	seed := cache.NewMemory()
	if _, err := spec.Execute(context.Background(), ExecConfig{Cache: seed}); err != nil {
		t.Fatal(err)
	}
	good, ok, err := seed.Get(context.Background(), hash)
	if err != nil || !ok {
		t.Fatalf("no cache entry after live run (ok=%v err=%v)", ok, err)
	}
	if [4]byte(good[:4]) != cacheMagic {
		t.Fatal("live run did not write a binary entry")
	}

	damage := map[string][]byte{
		"truncated": good[:len(good)/2],
		"bit-flip":  append([]byte(nil), good...),
	}
	damage["bit-flip"][len(good)/3] ^= 0x01

	for name, bad := range damage {
		t.Run(name, func(t *testing.T) {
			store := cache.NewMemory()
			if err := store.Put(context.Background(), hash, bad); err != nil {
				t.Fatal(err)
			}
			before := counting.calls.Load()
			res, err := spec.Execute(context.Background(), ExecConfig{Cache: store})
			if err != nil {
				t.Fatal(err)
			}
			if counting.calls.Load() == before {
				t.Fatal("damaged entry was served instead of re-running")
			}
			if len(res.Aggregates) == 0 {
				t.Fatal("live fallback returned no aggregates")
			}
			// The live run must overwrite the damaged entry with a good one.
			repaired, ok, err := store.Get(context.Background(), hash)
			if err != nil || !ok {
				t.Fatalf("no repaired entry (ok=%v err=%v)", ok, err)
			}
			if _, ok := decodeCacheEntry(repaired, hash, len(spec.Techniques)*len(spec.Ps), spec.Replications); !ok {
				t.Fatal("repaired entry does not decode")
			}
			before = counting.calls.Load()
			if _, err := spec.Execute(context.Background(), ExecConfig{Cache: store}); err != nil {
				t.Fatal(err)
			}
			if counting.calls.Load() != before {
				t.Fatal("repaired entry not served")
			}
		})
	}
}

// TestCacheSnapshotServesAggregateOnlyHitWithoutRecordDecode: an
// aggregate-only hit (no sinks, no KeepPerRun) is served from the
// snapshot section and must be bit-identical to the live result.
func TestCacheSnapshotServesAggregateOnlyHit(t *testing.T) {
	spec := countingSpec()
	store := cache.NewMemory()
	live, err := spec.Execute(context.Background(), ExecConfig{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	before := counting.calls.Load()
	hit, err := spec.Execute(context.Background(), ExecConfig{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != before {
		t.Fatal("snapshot hit performed backend runs")
	}
	if !reflect.DeepEqual(hit.Aggregates, live.Aggregates) || hit.Overall != live.Overall {
		t.Fatal("snapshot-served result differs from live result")
	}
}

// FuzzDecodeCacheEntry: arbitrary bytes must never panic the decoder —
// they either decode (only for a well-formed entry) or report a miss.
func FuzzDecodeCacheEntry(f *testing.F) {
	r := rand.New(rand.NewSource(42))
	perRun, res := randomEntry(r, 2, 3)
	good := encodeCacheEntry("fuzz-key", perRun, res)
	f.Add(good, "fuzz-key", 2, 3)
	f.Add(good[:len(good)-1], "fuzz-key", 2, 3)
	f.Add([]byte("DLSB"), "fuzz-key", 1, 1)
	f.Add([]byte(`{"version":1}`), "k", 1, 1)
	f.Add([]byte{}, "", 0, 0)
	f.Fuzz(func(t *testing.T, data []byte, key string, points, reps int) {
		if points < 0 || reps < 0 || points > 1<<12 || reps > 1<<12 {
			return
		}
		ent, ok := decodeCacheEntry(data, key, points, reps)
		if !ok {
			return
		}
		// A decoded entry must be internally consistent: perRunMetrics
		// must not panic and must match the declared shape.
		got := ent.perRunMetrics()
		if len(got) != points {
			t.Fatalf("decoded %d points, want %d", len(got), points)
		}
		for _, runs := range got {
			if len(runs) != reps {
				t.Fatalf("decoded %d reps, want %d", len(runs), reps)
			}
		}
	})
}
