package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The JSONL codec writes and reads the row schema without reflection.
// These tests hold it to encoding/json: the sink's bytes to what
// json.Encoder writes for jsonlRow, and the decoder's verdict and
// values to json.Unmarshal's.

// rowOf is the jsonlRow encoding/json would encode for ev.
func rowOf(ev Event) jsonlRow {
	return jsonlRow{
		Point: ev.Point, Technique: ev.Spec.Technique, N: ev.Spec.N, P: ev.Spec.P, Rep: ev.Rep,
		Makespan: ev.Metrics.Makespan, Wasted: ev.Metrics.Wasted, Speedup: ev.Metrics.Speedup,
		SchedOps: ev.Metrics.SchedOps,
	}
}

// sinkBytes consumes evs into a closed JSONLSink and returns its bytes
// and the first Consume error.
func sinkBytes(t *testing.T, evs ...Event) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	var first error
	for _, ev := range evs {
		if err := s.Consume(context.Background(), ev); err != nil && first == nil {
			first = err
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), first
}

// encoderBytes is json.Encoder's line for ev.
func encoderBytes(ev Event) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(rowOf(ev))
	return buf.Bytes(), err
}

func sampleEvent() Event {
	return Event{
		Point: 3, Rep: 17,
		Spec:    RunSpec{Technique: "FAC2", N: 1024, P: 8},
		Metrics: RunMetrics{Makespan: 123.456, Wasted: 0.5, Speedup: 7.25, SchedOps: 99},
	}
}

// TestJSONLSinkMatchesEncoder pins the sink's bytes to json.Encoder's
// at the float format's boundaries, for technique names that need
// escaping, for extreme integers and for random rows; NaN and ±Inf
// fail with the Encoder's error and write nothing.
func TestJSONLSinkMatchesEncoder(t *testing.T) {
	check := func(label string, ev Event) {
		t.Helper()
		want, err := encoderBytes(ev)
		if err != nil {
			t.Fatalf("%s: json.Encoder: %v", label, err)
		}
		got, err := sinkBytes(t, ev)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", label, got, want)
		}
	}
	floats := []float64{1e-6, 9.999e-7, 1e20, 1e21, math.Copysign(0, -1), 5e-324, math.MaxFloat64,
		0, -1e-6, -9.999e-7, 1e-7, 1.5e-300, 999999999999999900000, -1e21, 123456.789, 1e-5, 0.1}
	for _, f := range floats {
		ev := sampleEvent()
		ev.Metrics.Makespan, ev.Metrics.Wasted, ev.Metrics.Speedup = f, -f, f/3
		check("float "+formatFloat(f), ev)
	}
	for _, tech := range []string{"<", ">", "&", `"`, `\`, "a\x01b", "\x7f", "é", "\xff", "x\u2028y", "\u2029",
		"", "SS", "a<b>&c", "tab\there"} {
		ev := sampleEvent()
		ev.Spec.Technique = tech
		check("technique "+tech, ev)
	}
	ints := sampleEvent()
	ints.Point, ints.Rep, ints.Spec.P = math.MinInt, math.MaxInt, -1
	ints.Spec.N, ints.Metrics.SchedOps = math.MinInt64, math.MaxInt64
	check("extreme integers", ints)

	rng := rand.New(rand.NewSource(1))
	randFloat := func() float64 {
		for {
			var f float64
			switch rng.Intn(3) {
			case 0:
				f = math.Float64frombits(rng.Uint64())
			case 1:
				f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			default:
				f = float64(rng.Intn(1e6)) / 1e3
			}
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	var random []Event
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := 0; i < 20000; i++ {
		ev := Event{
			Point: rng.Int(), Rep: rng.Intn(1e6),
			Spec: RunSpec{Technique: "GSS", N: rng.Int63(), P: rng.Intn(1024)},
			Metrics: RunMetrics{Makespan: randFloat(), Wasted: randFloat(), Speedup: randFloat(),
				SchedOps: rng.Int63() - rng.Int63()},
		}
		random = append(random, ev)
		if err := enc.Encode(rowOf(ev)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sinkBytes(t, random...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		gotLines, wantLines := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want.Bytes(), []byte("\n"))
		for i := range wantLines {
			if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("random row %d differs from json.Encoder's %q", i, wantLines[i])
			}
		}
		t.Fatal("random rows: the sink wrote more than json.Encoder")
	}

	good := sampleEvent()
	goodLine, _ := encoderBytes(good)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := []Event{sampleEvent(), sampleEvent(), sampleEvent()}
		bad[0].Metrics.Makespan, bad[1].Metrics.Wasted, bad[2].Metrics.Speedup = f, f, f
		for field, ev := range bad {
			ref, refErr := encoderBytes(ev)
			got, err := sinkBytes(t, good, ev)
			var unsupported *json.UnsupportedValueError
			if !errors.As(err, &unsupported) || refErr == nil || err.Error() != refErr.Error() {
				t.Errorf("%v in metric %d: error %v, json.Encoder's %v", f, field, err, refErr)
			}
			if len(ref) != 0 || !bytes.Equal(got, goodLine) {
				t.Errorf("%v in metric %d: wrote %q after the good row, json.Encoder wrote %q", f, field, got[len(goodLine):], ref)
			}
		}
	}
}

// sameEvent compares events field by field, floats by their bits.
func sameEvent(a, b Event) bool {
	return a.Point == b.Point && a.Rep == b.Rep && a.Spec.Technique == b.Spec.Technique &&
		a.Spec.N == b.Spec.N && a.Spec.P == b.Spec.P && a.Metrics.SchedOps == b.Metrics.SchedOps &&
		math.Float64bits(a.Metrics.Makespan) == math.Float64bits(b.Metrics.Makespan) &&
		math.Float64bits(a.Metrics.Wasted) == math.Float64bits(b.Metrics.Wasted) &&
		math.Float64bits(a.Metrics.Speedup) == math.Float64bits(b.Metrics.Speedup)
}

// FuzzDecodeJSONLEvent: DecodeJSONLEvent accepts exactly the lines
// json.Unmarshal accepts into jsonlRow, and decodes the same values.
func FuzzDecodeJSONLEvent(f *testing.F) {
	canonical, _ := encoderBytes(sampleEvent())
	line := string(bytes.TrimSuffix(canonical, []byte("\n")))
	// with is the canonical line with one change.
	with := func(from, to string) string { return strings.Replace(line, from, to, 1) }
	for _, seed := range []string{
		string(canonical),
		line,
		`{"point":0,"technique":"GSS","n":256,"p":4,"rep":0,"makespan_s":-0,"avg_wasted_s":1e-7,"speedup":5e-324,"sched_ops":-0}`,
		with(`"makespan_s":123.456`, `"makespan_s":1.5E+2`),
		// Reordered keys, a nested unknown field, whitespace.
		`{"technique":"FAC2","point":3,"p":8,"n":1024,"rep":17,"speedup":7.25,"makespan_s":123.456,"avg_wasted_s":0.5,"sched_ops":99}`,
		with(`"sched_ops":99}`, `"sched_ops":99,"extra":{"a":[1,{"b":null}],"c":"d"}}`),
		` { "point" : 3 , "technique" : "FAC2" , "n" : 1024 , "p" : 8 , "rep" : 17 , "makespan_s" : 123.456 , "avg_wasted_s" : 0.5 , "speedup" : 7.25 , "sched_ops" : 99 } ` + "\r\n",
		// Technique names: escapes, a raw control byte, invalid UTF-8.
		with(`"FAC2"`, `"F\u0041C2"`),
		with(`"FAC2"`, `"a\n\"<>\\"`),
		with(`"FAC2"`, "\"F\tAC2\""),
		with(`"FAC2"`, "\"\xff\xc3\""),
		// Numbers encoding/json refuses to store, or to parse.
		with(`"point":3`, `"point":1e2`),
		with(`"speedup":7.25`, `"speedup":NaN`),
		with(`"makespan_s":123.456`, `"makespan_s":1e400`),
		with(`"n":1024`, `"n":9223372036854775808`),
		with(`"n":1024`, `"n":01024`),
		with(`"makespan_s":123.456`, `"makespan_s":00.5`),
		with(`"makespan_s":123.456`, `"makespan_s":1.`),
		with(`"makespan_s":123.456`, `"makespan_s":.5`),
		with(`"makespan_s":123.456`, `"makespan_s":+1`),
		with(`"makespan_s":123.456`, `"makespan_s":1e`),
		// Duplicate keys, case-variant keys, null.
		with(`"sched_ops":99}`, `"sched_ops":99,"point":4,"technique":"GSS"}`),
		with(`"point":3,"technique"`, `"Point":3,"TECHNIQUE"`),
		with(`"point":3,"technique":"FAC2"`, `"point":null,"technique":null`),
		line[:len(line)/2],
		`{}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := DecodeJSONLEvent(line)
		var row jsonlRow
		refErr := json.Unmarshal(line, &row)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: DecodeJSONLEvent error %v, json.Unmarshal error %v", line, err, refErr)
		}
		want := Event{
			Point: row.Point, Rep: row.Rep,
			Spec:    RunSpec{Technique: row.Technique, N: row.N, P: row.P},
			Metrics: RunMetrics{Makespan: row.Makespan, Wasted: row.Wasted, Speedup: row.Speedup, SchedOps: row.SchedOps},
		}
		if err == nil && !sameEvent(got, want) {
			t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}

// TestDecodeJSONLEventAllocations: decoding a row in the encoder's
// shape allocates only the technique name, never the fallback's row.
func TestDecodeJSONLEventAllocations(t *testing.T) {
	line, _ := encoderBytes(sampleEvent())
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeJSONLEvent(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("DecodeJSONLEvent makes %.1f allocations per canonical row, budget is 1", allocs)
	}
}

// BenchmarkJSONLRow times one row through each half of the codec.
func BenchmarkJSONLRow(b *testing.B) {
	ev := sampleEvent()
	line, _ := encoderBytes(ev)
	b.Run("encode", func(b *testing.B) {
		s := NewJSONLSink(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Consume(context.Background(), ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeJSONLEvent(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}
