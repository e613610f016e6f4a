package engine

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// This file implements the pipeline's streaming writers: sinks that
// serialize every run event as it is delivered, so arbitrarily large
// campaigns export raw per-run data in O(1) memory. Because the pipeline
// delivers events in deterministic order, the written bytes are
// reproducible for a given seed regardless of worker count.

// CSVSink streams one CSV row per run. The header is written on the
// first event.
type CSVSink struct {
	w      *csv.Writer
	header bool
}

// NewCSVSink returns a sink writing per-run CSV rows to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: csv.NewWriter(w)} }

// Consume writes the event's run metrics as one row.
func (s *CSVSink) Consume(_ context.Context, ev Event) error {
	if !s.header {
		s.header = true
		if err := s.w.Write([]string{"point", "technique", "n", "p", "rep",
			"makespan_s", "avg_wasted_s", "speedup", "sched_ops"}); err != nil {
			return err
		}
	}
	return s.w.Write([]string{
		strconv.Itoa(ev.Point),
		ev.Spec.Technique,
		strconv.FormatInt(ev.Spec.N, 10),
		strconv.Itoa(ev.Spec.P),
		strconv.Itoa(ev.Rep),
		formatFloat(ev.Metrics.Makespan),
		formatFloat(ev.Metrics.Wasted),
		formatFloat(ev.Metrics.Speedup),
		strconv.FormatInt(ev.Metrics.SchedOps, 10),
	})
}

// Close flushes buffered rows.
func (s *CSVSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}

// formatFloat renders v with the shortest representation that round-trips
// exactly, so consumers can reconstruct the bit-exact value.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// JSONLSink streams one JSON object per run (JSON Lines). Rows are
// buffered, like CSVSink's, and flushed by Close.
//
// The encoder writes the fixed row schema directly, byte for byte what
// encoding/json's Encoder writes for jsonlRow: the same key order, the
// same float format and, for a technique name that needs escaping,
// json.Marshal's bytes.
type JSONLSink struct {
	w *bufio.Writer
}

// NewJSONLSink returns a sink writing one JSON object per line to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: bufio.NewWriter(w)} }

// The row's key fragments, in order: each one precedes a value. The
// encoder writes them and the decoder's fast path expects them.
const (
	keyPoint     = `{"point":`
	keyTechnique = `,"technique":`
	keyN         = `,"n":`
	keyP         = `,"p":`
	keyRep       = `,"rep":`
	keyMakespan  = `,"makespan_s":`
	keyWasted    = `,"avg_wasted_s":`
	keySpeedup   = `,"speedup":`
	keySchedOps  = `,"sched_ops":`
)

// jsonlRowMax bounds a row whose technique name is at most 48 bytes:
// 97 bytes of keys, quotes and punctuation, five integers of at most
// 20 bytes and three floats of at most 25. Consume flushes before
// encoding into less free space, so such a row never reallocates the
// writer's buffer.
const jsonlRowMax = 320

// jsonlRow is the row schema as encoding/json sees it: the decoder's
// fallback for any line that is not in the encoder's exact shape.
type jsonlRow struct {
	Point     int     `json:"point"`
	Technique string  `json:"technique"`
	N         int64   `json:"n"`
	P         int     `json:"p"`
	Rep       int     `json:"rep"`
	Makespan  float64 `json:"makespan_s"`
	Wasted    float64 `json:"avg_wasted_s"`
	Speedup   float64 `json:"speedup"`
	SchedOps  int64   `json:"sched_ops"`
}

// Consume writes the event's run metrics as one JSON line. A NaN or
// infinite metric fails with *json.UnsupportedValueError, as
// encoding/json does, and writes nothing.
func (s *JSONLSink) Consume(_ context.Context, ev Event) error {
	if s.w.Available() < jsonlRowMax {
		if err := s.w.Flush(); err != nil {
			return err
		}
	}
	row, err := appendJSONLRow(s.w.AvailableBuffer(), ev)
	if err != nil {
		return err
	}
	_, err = s.w.Write(row)
	return err
}

// Close flushes buffered rows.
func (s *JSONLSink) Close() error { return s.w.Flush() }

// appendJSONLRow appends ev's row and its newline to b.
func appendJSONLRow(b []byte, ev Event) ([]byte, error) {
	m := ev.Metrics
	for _, v := range [...]float64{m.Makespan, m.Wasted, m.Speedup} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
	}
	b = append(b, keyPoint...)
	b = strconv.AppendInt(b, int64(ev.Point), 10)
	b = append(b, keyTechnique...)
	b = appendJSONString(b, ev.Spec.Technique)
	b = append(b, keyN...)
	b = strconv.AppendInt(b, ev.Spec.N, 10)
	b = append(b, keyP...)
	b = strconv.AppendInt(b, int64(ev.Spec.P), 10)
	b = append(b, keyRep...)
	b = strconv.AppendInt(b, int64(ev.Rep), 10)
	b = append(b, keyMakespan...)
	b = appendJSONFloat(b, m.Makespan)
	b = append(b, keyWasted...)
	b = appendJSONFloat(b, m.Wasted)
	b = append(b, keySpeedup...)
	b = appendJSONFloat(b, m.Speedup)
	b = append(b, keySchedOps...)
	b = strconv.AppendInt(b, m.SchedOps, 10)
	return append(b, '}', '\n'), nil
}

// appendJSONString appends s as a JSON string. A name of printable
// ASCII that encoding/json leaves alone is copied as is; any other
// goes through json.Marshal, which escapes what the Encoder escapes
// (quotes, backslashes, control bytes, <, > and &, U+2028 and U+2029)
// and replaces invalid UTF-8 with U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends a finite v in encoding/json's float format:
// the shortest representation that round-trips, as 'f' except 'e' for
// magnitudes below 1e-6 or from 1e21 up, with an exponent of e-0N
// written e-N.
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// DecodeJSONLEvent parses one line of JSONLSink output back into an
// Event. It lives next to the encoder so the two can never drift: a
// remote consumer decoding a dlsimd result stream reconstructs exactly
// the metrics the producing pipeline emitted (floats are encoded in
// shortest round-trip form, so the bits survive the trip). The
// reconstructed Spec carries only the row's identifying coordinates
// (Technique, N, P) — the workload, seeds and parameters live in the
// campaign spec the stream was produced from.
//
// A line in the encoder's exact shape — its keys in its order, JSON
// numbers, a technique of printable ASCII without escapes — is parsed
// directly. Any other line goes to json.Unmarshal, so the decoder
// accepts and rejects exactly what encoding/json does, with the same
// values: keys in any order, and unknown fields ignored — the v1
// contract permits additive row fields, so the reader must stay
// tolerant of producers newer than itself.
func DecodeJSONLEvent(line []byte) (Event, error) {
	if ev, ok := decodeCanonicalRow(line); ok {
		return ev, nil
	}
	return decodeRowFallback(line)
}

// decodeRowFallback decodes line with encoding/json. It is a function
// of its own so that the row escaping into json.Unmarshal's argument
// is allocated only on this path.
func decodeRowFallback(line []byte) (Event, error) {
	var row jsonlRow
	if err := json.Unmarshal(line, &row); err != nil {
		return Event{}, fmt.Errorf("engine: decode result line: %w", err)
	}
	return Event{
		Point: row.Point,
		Rep:   row.Rep,
		Spec:  RunSpec{Technique: row.Technique, N: row.N, P: row.P},
		Metrics: RunMetrics{
			Makespan: row.Makespan,
			Wasted:   row.Wasted,
			Speedup:  row.Speedup,
			SchedOps: row.SchedOps,
		},
	}, nil
}

// decodeCanonicalRow parses a line in the encoder's exact shape,
// followed by nothing but JSON whitespace. It reports false for any
// other line, and for a number encoding/json would refuse to store
// (out of range, or not an integer where one is due), leaving the
// verdict to decodeRowFallback.
func decodeCanonicalRow(line []byte) (Event, bool) {
	r := rowReader{rest: line, ok: true}
	var ev Event
	r.key(keyPoint)
	ev.Point = r.int()
	r.key(keyTechnique)
	ev.Spec.Technique = r.str()
	r.key(keyN)
	ev.Spec.N = r.int64()
	r.key(keyP)
	ev.Spec.P = r.int()
	r.key(keyRep)
	ev.Rep = r.int()
	r.key(keyMakespan)
	ev.Metrics.Makespan = r.float()
	r.key(keyWasted)
	ev.Metrics.Wasted = r.float()
	r.key(keySpeedup)
	ev.Metrics.Speedup = r.float()
	r.key(keySchedOps)
	ev.Metrics.SchedOps = r.int64()
	r.key("}")
	for _, c := range r.rest {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return Event{}, false
		}
	}
	return ev, r.ok
}

// rowReader consumes a canonical row front to back. Once ok is false
// every method is a no-op returning a zero value.
type rowReader struct {
	rest []byte
	ok   bool
}

// key consumes the literal k.
func (r *rowReader) key(k string) {
	if r.ok = r.ok && len(r.rest) >= len(k) && string(r.rest[:len(k)]) == k; r.ok {
		r.rest = r.rest[len(k):]
	}
}

// number consumes a JSON number and returns its text.
func (r *rowReader) number() []byte {
	if !r.ok {
		return nil
	}
	b := r.rest
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := digits(b, i)
	// JSON allows no leading zero.
	r.ok = end > i && (b[i] != '0' || end == i+1)
	i = end
	if r.ok && i < len(b) && b[i] == '.' {
		end = digits(b, i+1)
		r.ok = end > i+1
		i = end
	}
	if r.ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		end = digits(b, i)
		r.ok = end > i
		i = end
	}
	if !r.ok {
		return nil
	}
	r.rest = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// int64 consumes a number written as an integer that fits in an
// int64; ParseInt refuses a fraction or an exponent, as encoding/json
// does for an integer field.
func (r *rowReader) int64() int64 {
	text := r.number()
	if !r.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(text), 10, 64)
	r.ok = err == nil
	return v
}

// int consumes an integer that fits in an int.
func (r *rowReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.ok = false
	}
	return int(v)
}

// float consumes a number that parses to a finite float64.
func (r *rowReader) float() float64 {
	text := r.number()
	if !r.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(text), 64)
	r.ok = err == nil
	return v
}

// str consumes a quoted string of printable ASCII other than '"' and
// '\\', which JSON carries unescaped.
func (r *rowReader) str() string {
	if r.key(`"`); !r.ok {
		return ""
	}
	for i, c := range r.rest {
		if c == '"' {
			s := string(r.rest[:i])
			r.rest = r.rest[i+1:]
			return s
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	r.ok = false
	return ""
}
