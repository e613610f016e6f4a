package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer.
// Start and End are nanoseconds since the tracer was created. Parent is
// the ID of the span whose work caused this one (0 for a root); spans of
// one request share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"` // "<layer>.<operation>", e.g. "client.submit"
	Node   string `json:"node,omitempty"`
	Key    string `json:"key,omitempty"` // cache key or job hash, for attribution
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the benchmark writes them out. A
// nil *Tracer records nothing, so untraced runs pay only a nil check.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	next  int64
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// now returns the tracer clock in nanoseconds.
func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall-clock instant taken in this process to the tracer
// clock.
func (t *Tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// ID reserves a span ID, for spans whose end is recorded later or whose
// children must name them before they finish.
func (t *Tracer) ID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// Add records a finished span, assigning it an ID when it has none.
func (t *Tracer) Add(s Span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// Reset drops the spans recorded so far, so the trace covers the
// measured window and not the set-up before it. Call it only while no
// span is open.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

// replace swaps the recorded spans for spans — a trace completed after
// the fact with spans derived from other records.
func (t *Tracer) replace(spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = spans
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// spanCtx is what a context carries from a span to the calls it makes.
type spanCtx struct{ id, req int64 }

type spanKey struct{}

// withSpan returns ctx carrying span id and request req.
func withSpan(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{id, req})
}

// spanFrom returns the span and request ctx carries (zeros if none).
func spanFrom(ctx context.Context) (id, req int64) {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc.id, sc.req
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by the union of its children. Children may
// overlap each other (parallel shards) and may start before or end
// after their parent (a job queued before the request that waits on
// it); only the covered part of the parent's own interval is removed.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// writeTrace writes the spans and the run's identity as one JSON
// document.
func writeTrace(path string, header map[string]any, spans []Span) error {
	doc := map[string]any{"run": header, "spans": spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
