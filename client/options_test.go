package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/campaign"
)

// flaky is a handler that fails the first `failures` requests with the
// given status (wrapped in the service's error envelope) and then
// defers to next.
type flaky struct {
	failures int64
	status   int
	code     string
	seen     atomic.Int64
	next     http.Handler
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.seen.Add(1) <= f.failures {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.status)
		json.NewEncoder(w).Encode(campaign.ErrorEnvelope{
			Error: campaign.ErrorBody{Code: f.code, Message: "injected"},
		})
		return
	}
	f.next.ServeHTTP(w, r)
}

func ok(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
}

// TestRetryTransient5xx: a client with retries enabled absorbs
// transient 503s (queue_full maps there) and succeeds once the server
// recovers; the same failure sequence without retries surfaces the
// sentinel error.
func TestRetryTransient5xx(t *testing.T) {
	h := &flaky{failures: 2, status: http.StatusServiceUnavailable,
		code: campaign.CodeQueueFull, next: http.HandlerFunc(ok)}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c, err := New(srv.URL, WithOptions(Options{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0.5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Live(context.Background()); err != nil {
		t.Fatalf("Health with retries: %v", err)
	}
	if got := h.seen.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}

	h.seen.Store(0)
	plain, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Live(context.Background()); !errors.Is(err, campaign.ErrQueueFull) {
		t.Fatalf("Health without retries = %v, want ErrQueueFull", err)
	}
	if got := h.seen.Load(); got != 1 {
		t.Fatalf("retry-less client issued %d requests, want 1", got)
	}
}

// TestRetryConnectionRefused: retries span complete connection
// failures, not just error responses — the server only starts
// listening after the first attempt has already been refused.
func TestRetryConnectionRefused(t *testing.T) {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(ok))
	addr := srv.Listener.Addr().String()
	go func() {
		time.Sleep(30 * time.Millisecond)
		srv.Start()
	}()
	defer srv.Close()

	// Close the listener's accept socket is not possible pre-start; the
	// unstarted server holds the port but refuses HTTP until Start. A
	// request before Start hangs in accept rather than being refused on
	// some platforms, so bound each attempt with a short timeout on the
	// transport — the timeout itself is a retryable transport failure.
	c, err := New("http://"+addr, WithDoer(&http.Client{Timeout: 20 * time.Millisecond}), WithOptions(Options{
		Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Live(context.Background()); err != nil {
		t.Fatalf("Health across server start: %v", err)
	}
}

// TestNoRetryOnClientError: 4xx responses are caller mistakes, not
// transient conditions; they must surface immediately.
func TestNoRetryOnClientError(t *testing.T) {
	h := &flaky{failures: 99, status: http.StatusNotFound, code: campaign.CodeNotFound}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c, err := New(srv.URL, WithOptions(Options{Retry: DefaultRetry}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(context.Background(), "nope"); !errors.Is(err, campaign.ErrNotFound) {
		t.Fatalf("Job = %v, want ErrNotFound", err)
	}
	if got := h.seen.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a 404, want 1", got)
	}
}

// doerFunc adapts a function to the Doer interface.
type doerFunc func(*http.Request) (*http.Response, error)

func (f doerFunc) Do(req *http.Request) (*http.Response, error) { return f(req) }

// TestRetryStopsOnCancel: a cancelled caller context ends the retry
// loop with the last real error instead of sleeping out the policy.
// The doer cancels only after it has buffered the third 500's body, so
// the cancellation lands between attempts, never inside one (where the
// client rightly reports the context error instead).
func TestRetryStopsOnCancel(t *testing.T) {
	h := &flaky{failures: 99, status: http.StatusInternalServerError, code: campaign.CodeInternal}
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var responses int
	var cancelledAt time.Time
	doer := doerFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := srv.Client().Do(req)
		if err != nil {
			return nil, err
		}
		if responses++; responses == 3 {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			resp.Body = io.NopCloser(bytes.NewReader(body))
			cancelledAt = time.Now()
			cancel()
		}
		return resp, nil
	})
	c, err := New(srv.URL, WithDoer(doer), WithOptions(Options{
		Retry: RetryPolicy{MaxAttempts: 1000, BaseDelay: time.Millisecond, MaxDelay: time.Hour},
	}))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Live(ctx)
	if err == nil {
		t.Fatal("Health succeeded against a permanently failing server")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("Health = %v, want the last HTTP 500", err)
	}
	if elapsed := time.Since(cancelledAt); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v past cancellation", elapsed)
	}
	if got := h.seen.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestRetryPolicyDelay pins the backoff shape: exponential growth from
// BaseDelay, capped at MaxDelay, and jitter only ever shrinking the
// delay within its fraction.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	for retry, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond,
	} {
		if got := p.delay(retry); got != want {
			t.Errorf("delay(%d) = %v, want %v", retry, got, want)
		}
	}
	j := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := j.delay(1) // un-jittered: 20ms
		if d < 10*time.Millisecond || d > 20*time.Millisecond {
			t.Fatalf("jittered delay %v outside [10ms, 20ms]", d)
		}
	}
}
