package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/cache"
	"repro/internal/engine"
)

// This file holds the wrappers a traced run installs around each layer's
// public surface. Every one of them times calls from outside the layer;
// none changes what the layer computes. Untraced runs install none.

// tracedSimName is the backend a traced run selects in place of "sim".
// It delegates every call to the sim backend and times each run, so the
// results — and every digest — are those of "sim".
const tracedSimName = "sim-traced"

// runStats accumulates the runs a backend executed and the time it spent
// in them. Read a snapshot before and after a window and subtract.
type runStats struct {
	runs, busyNs, ops atomic.Int64
}

func (s *runStats) add(start time.Time, res *engine.RunResult) {
	s.busyNs.Add(int64(time.Since(start)))
	s.runs.Add(1)
	if res != nil {
		s.ops.Add(res.SchedOps)
	}
}

type runSnapshot struct{ runs, busyNs, ops int64 }

func (s *runStats) snapshot() runSnapshot {
	return runSnapshot{s.runs.Load(), s.busyNs.Load(), s.ops.Load()}
}

func (a runSnapshot) sub(b runSnapshot) runSnapshot {
	return runSnapshot{a.runs - b.runs, a.busyNs - b.busyNs, a.ops - b.ops}
}

// simStats counts the runs of the registered sim-traced backend. It is
// process-wide because the engine's backend registry is.
var simStats runStats

func init() {
	be, err := engine.New("sim")
	if err != nil {
		panic(err)
	}
	engine.Register(tracedSim{inner: be.(engine.RunnerBackend)})
}

type tracedSim struct{ inner engine.RunnerBackend }

func (tracedSim) Name() string { return tracedSimName }

func (b tracedSim) Run(ctx context.Context, spec engine.RunSpec) (*engine.RunResult, error) {
	start := time.Now()
	res, err := b.inner.Run(ctx, spec)
	simStats.add(start, res)
	return res, err
}

// NewRunner keeps the engine on its per-worker runner path: the wrapper
// is itself a Rebinder, as the sim runner it wraps is.
func (b tracedSim) NewRunner(spec engine.RunSpec) (engine.Runner, error) {
	r, err := b.inner.NewRunner(spec)
	if err != nil {
		return nil, err
	}
	return &tracedRunner{inner: r.(engine.Rebinder)}, nil
}

type tracedRunner struct{ inner engine.Rebinder }

func (r *tracedRunner) Run(ctx context.Context, spec engine.RunSpec) (*engine.RunResult, error) {
	start := time.Now()
	res, err := r.inner.Run(ctx, spec)
	simStats.add(start, res)
	return res, err
}

func (r *tracedRunner) Rebind(spec engine.RunSpec) error { return r.inner.Rebind(spec) }

// timingSink measures how long the ordered-delivery goroutine spends
// inside a sink and how long it spends between calls. The pipeline calls
// a sink from one goroutine, so the fields need no locking; read them
// after the campaign returns.
type timingSink struct {
	inner engine.Sink

	events      int64
	busy        time.Duration
	first, last time.Time
}

func (s *timingSink) Consume(ctx context.Context, ev engine.Event) error {
	start := time.Now()
	if s.events == 0 {
		s.first = start
	}
	err := s.inner.Consume(ctx, ev)
	s.last = time.Now()
	s.busy += s.last.Sub(start)
	s.events++
	return err
}

func (s *timingSink) Close() error { return s.inner.Close() }

// wait is the time between the first and last event not spent in the
// sink: the delivery goroutine waiting on workers and reordering.
func (s *timingSink) wait() time.Duration {
	if s.events == 0 {
		return 0
	}
	return s.last.Sub(s.first) - s.busy
}

// tracedStore times and counts every call into a result store.
type tracedStore struct {
	inner cache.Store
	tr    *Tracer

	gets, hits, puts, putBytes atomic.Int64
}

func (s *tracedStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	start := s.tr.now()
	data, ok, err := s.inner.Get(ctx, key)
	s.gets.Add(1)
	if ok && err == nil {
		s.hits.Add(1)
	}
	parent, req := spanFrom(ctx)
	s.tr.Add(Span{Name: "cache.get", Parent: parent, Req: req, Key: key, Start: start, End: s.tr.now()})
	return data, ok, err
}

func (s *tracedStore) Put(ctx context.Context, key string, data []byte) error {
	start := s.tr.now()
	err := s.inner.Put(ctx, key, data)
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	parent, req := spanFrom(ctx)
	s.tr.Add(Span{Name: "cache.put", Parent: parent, Req: req, Key: key, Start: start, End: s.tr.now()})
	return err
}

// Headers carrying a span across the loopback HTTP hop, so a handler's
// span names the client call that caused it. The service ignores them.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// route names the /v1 call a request makes.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case method == http.MethodGet && strings.HasSuffix(path, "/results"):
		return "results"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		return "status"
	default:
		return "other"
	}
}

// tracedDoer times each HTTP attempt the client SDK makes against one
// node, from sending the request until the response body is closed.
type tracedDoer struct {
	next client.Doer
	tr   *Tracer
	node string

	attempts, failed atomic.Int64
}

func (d *tracedDoer) Do(req *http.Request) (*http.Response, error) {
	parent, reqID := spanFrom(req.Context())
	id := d.tr.ID()
	req = req.Clone(req.Context())
	req.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
	req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	sp := Span{ID: id, Parent: parent, Req: reqID, Name: "client." + route(req.Method, req.URL.Path), Node: d.node, Start: d.tr.now()}
	d.attempts.Add(1)
	resp, err := d.next.Do(req)
	if err != nil || resp.StatusCode >= 500 {
		d.failed.Add(1)
	}
	if err != nil {
		sp.End = d.tr.now()
		d.tr.Add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: d.tr, sp: sp}
	return resp, nil
}

// spanBody ends its span when the client closes the response body, so a
// streamed result download is timed to its last byte.
type spanBody struct {
	io.ReadCloser
	tr   *Tracer
	sp   Span
	done atomic.Bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done.CompareAndSwap(false, true) {
		b.sp.End = b.tr.now()
		b.tr.Add(b.sp)
	}
	return err
}

// tracedHandler times each request one node's service handles.
type tracedHandler struct {
	next http.Handler
	tr   *Tracer
	node string

	requests, errors atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	id := h.tr.ID()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := h.tr.now()
	h.next.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), id, req)))
	h.tr.Add(Span{ID: id, Parent: parent, Req: req, Name: "service." + route(r.Method, r.URL.Path),
		Node: h.node, Start: start, End: h.tr.now()})
	h.requests.Add(1)
	if sw.code >= 400 {
		h.errors.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
