package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/campaign"
)

// Client speaks the dlsimd /v1 API. It is safe for concurrent use and
// implements campaign.Executor — the remote counterpart of
// campaign.LocalRunner — and campaign.Runner, a node's job API.
type Client struct {
	base   string // normalized base URL, no trailing slash
	doer   Doer   // transport seam; defaults to a plain *http.Client
	apiKey string
	opts   Options
}

// Doer issues one HTTP request — the client's only transport seam,
// installed with WithDoer. *http.Client implements it; tests and the
// fault-injection harness (internal/chaos.Injector) substitute their
// own to exercise failure paths without sockets. The client's retry
// policy operates above the Doer: each retry is one more Do call.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

var (
	_ campaign.Runner   = (*Client)(nil)
	_ campaign.Executor = (*Client)(nil)
)

// Sentinel errors surfaced from the service's auth, rate-limit and
// quota middleware, re-exported from campaign so callers importing only
// this package can errors.Is against them.
var (
	// ErrUnauthorized reports a missing or invalid API key (HTTP 401).
	ErrUnauthorized = campaign.ErrUnauthorized
	// ErrRateLimited reports a request rejected by the per-tenant rate
	// limiter (HTTP 429). The retry policy backs off automatically,
	// honoring the server's Retry-After.
	ErrRateLimited = campaign.ErrRateLimited
	// ErrQuotaExceeded reports a submission rejected by the tenant's
	// queued-job quota (HTTP 403).
	ErrQuotaExceeded = campaign.ErrQuotaExceeded
)

// RetryPolicy configures transparent retries of transient failures.
// Every request the client issues is idempotent — GETs and DELETEs
// trivially, and Submit by construction: the service deduplicates
// submissions on the spec's canonical hash, so a retried POST lands on
// the same job. That is what makes blanket retry safe here.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per request, including the
	// first; 0 and 1 both mean no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// subsequent retry. 0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff. 0 means 2s.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized away, in [0, 1]:
	// the actual sleep is uniform in [(1-Jitter)·d, d]. Jitter keeps a
	// fleet of coordinators from retrying in lockstep against a node
	// that just came back.
	Jitter float64
}

// DefaultRetry is a reasonable policy for coordinator-style callers:
// up to 4 attempts, 50ms base delay doubling to a 2s cap, half-jittered.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.5}

// Options holds the client's retry policy. The zero value issues every
// request exactly once.
type Options struct {
	// Retry enables transparent retry of transient failures: transport
	// errors (connection refused, reset, a Doer's timeout) and any 5xx
	// response — which covers campaign.ErrQueueFull and
	// campaign.ErrClosed, both mapped to HTTP 503 by the service.
	// Non-5xx API errors (validation, not-found) never retry, and a
	// cancelled caller context stops retrying immediately.
	Retry RetryPolicy
}

// Option customizes a Client.
type Option func(*Client)

// WithDoer installs the transport used for every request, below the
// retry policy: an *http.Client with a timeout, TLS configuration or a
// tuned Transport, a fault injector, or any instrumenting wrapper
// around one. The default is an *http.Client with no timeout, since
// Wait and Stream legitimately block for as long as a campaign runs;
// bound a call through its context instead. An *http.Client's Timeout
// covers every request, long polls included.
func WithDoer(d Doer) Option {
	return func(c *Client) { c.doer = d }
}

// WithAPIKey sends the key as "Authorization: Bearer <key>" on every
// request — the credential for services running with -auth.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithOptions installs the client's retry policy.
func WithOptions(o Options) Option { return func(c *Client) { c.opts = o } }

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parse base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q has no host", baseURL)
	}
	c := &Client{
		base: strings.TrimRight(u.String(), "/"),
		doer: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// APIError is a non-2xx response decoded from the service's structured
// error envelope {"error": {"code", "message", "details"}}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error code (campaign.Code*).
	Code string
	// Message is the human-readable description.
	Message string
	// Details carries code-specific context (offending parameter, job
	// state, ...).
	Details map[string]any
	// RetryAfter is the server's Retry-After hint (429 responses), zero
	// when absent. The client's own retry loop already honors it; it is
	// surfaced for callers orchestrating their own backoff.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// RetryAfterHint returns the server-provided backoff, zero when none.
// It lets rate-limit-aware callers (campaign/distrib) discover the hint
// through errors.As without depending on this package's types.
func (e *APIError) RetryAfterHint() time.Duration { return e.RetryAfter }

// Unwrap maps stable error codes onto the campaign package's sentinel
// errors, so errors.Is(err, campaign.ErrQueueFull) and friends hold for
// remote failures exactly as for local ones.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case campaign.CodeQueueFull:
		return campaign.ErrQueueFull
	case campaign.CodeNotFound:
		return campaign.ErrNotFound
	case campaign.CodeShuttingDown:
		return campaign.ErrClosed
	case campaign.CodeUnauthorized:
		return campaign.ErrUnauthorized
	case campaign.CodeRateLimited:
		return campaign.ErrRateLimited
	case campaign.CodeQuotaExceeded:
		return campaign.ErrQuotaExceeded
	}
	return nil
}

// do issues one request with the client's retry policy applied and, on
// a non-2xx status, drains the body into an *APIError. On success the
// response is returned with its body open; the caller owns closing it.
// Only failures that occur before the response starts are retried.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body []byte, accept string) (*http.Response, error) {
	attempts := c.opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d := c.opts.Retry.delay(a - 1)
			// A 429's Retry-After is a floor, not a suggestion: sleeping
			// less would burn the attempt against a bucket known to be
			// empty.
			var apiErr *APIError
			if errors.As(last, &apiErr) && apiErr.RetryAfter > d {
				d = apiErr.RetryAfter
			}
			if err := sleepCtx(ctx, d); err != nil {
				return nil, last
			}
		}
		resp, err := c.doOnce(ctx, method, path, query, body, accept)
		if err == nil {
			return resp, nil
		}
		last = err
		if ctx.Err() != nil || !retryable(err) {
			break
		}
	}
	return nil, last
}

// retryable reports whether an attempt's failure is worth retrying:
// transport-level errors (connection refused, reset, attempt timeout),
// 5xx responses and 429 rate limiting (the bucket refills) are;
// well-formed non-5xx API errors are not.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.Status == http.StatusTooManyRequests
	}
	return true
}

// delay returns the backoff before retry number `retry` (0-based),
// exponentially grown from BaseDelay, capped at MaxDelay, jittered.
func (p RetryPolicy) delay(retry int) time.Duration {
	base, cap := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	d := base
	for i := 0; i < retry && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	if j := p.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		d = time.Duration(float64(d) * (1 - j*rand.Float64()))
	}
	return d
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, query url.Values, body []byte, accept string) (*http.Response, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("User-Agent", "repro-client/"+campaign.APIVersion)
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var envelope campaign.ErrorEnvelope
	apiErr := &APIError{Status: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	if err := json.Unmarshal(raw, &envelope); err == nil && envelope.Error.Code != "" {
		apiErr.Code = envelope.Error.Code
		apiErr.Message = envelope.Error.Message
		apiErr.Details = envelope.Error.Details
	} else {
		// Not our envelope (proxy error page, older server): keep the
		// raw body as the message under the generic code.
		apiErr.Code = campaign.CodeInternal
		apiErr.Message = strings.TrimSpace(string(raw))
		if apiErr.Message == "" {
			apiErr.Message = resp.Status
		}
	}
	return nil, apiErr
}

// getJSON issues a GET and decodes the JSON response into out.
func (c *Client) getJSON(ctx context.Context, path string, query url.Values, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, query, nil, "application/json")
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// Submit implements campaign.Runner: POST /v1/jobs.
func (c *Client) Submit(ctx context.Context, spec campaign.Spec) (campaign.Job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return campaign.Job{}, fmt.Errorf("client: encode spec: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", nil, body, "application/json")
	if err != nil {
		return campaign.Job{}, err
	}
	defer drainClose(resp.Body)
	var sub struct {
		campaign.Snapshot
		Deduped bool `json:"deduped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return campaign.Job{}, fmt.Errorf("client: decode submit response: %w", err)
	}
	return campaign.Job{ID: sub.ID, Hash: sub.Hash, Deduped: sub.Deduped}, nil
}

// Job returns one job's current status: GET /v1/jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (campaign.Snapshot, error) {
	var snap campaign.Snapshot
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id), nil, &snap)
	return snap, err
}

// Wait implements campaign.Runner: GET /v1/jobs/{id}?wait=1, blocking
// server-side until the job is terminal or ctx is cancelled.
func (c *Client) Wait(ctx context.Context, id string) (campaign.Snapshot, error) {
	var snap campaign.Snapshot
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id), url.Values{"wait": {"1"}}, &snap)
	return snap, err
}

// ListOptions parameterize Jobs.
type ListOptions struct {
	// Limit bounds the page size; 0 returns everything.
	Limit int
	// After resumes listing after the job with this ID — the NextAfter
	// cursor of the previous page.
	After string
}

// JobList is one page of jobs. NextAfter, when non-empty, is the cursor
// of the following page.
type JobList struct {
	Jobs      []campaign.Snapshot `json:"jobs"`
	NextAfter string              `json:"next_after"`
}

// Jobs lists jobs in submission order: GET /v1/jobs?limit=&after=.
func (c *Client) Jobs(ctx context.Context, opts ListOptions) (JobList, error) {
	q := url.Values{}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.After != "" {
		q.Set("after", opts.After)
	}
	var page JobList
	err := c.getJSON(ctx, "/v1/jobs", q, &page)
	return page, err
}

// Cancel implements campaign.Runner: DELETE /v1/jobs/{id}.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil, "application/json")
	if err != nil {
		return err
	}
	return drainClose(resp.Body)
}

// drainClose consumes the remainder of a response body before closing
// it, so the underlying keep-alive connection is reusable instead of
// being torn down.
func drainClose(body io.ReadCloser) error {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	return body.Close()
}

// Results opens the job's raw result stream: GET /v1/jobs/{id}/results.
// format is "jsonl" or "csv" ("" selects the server default, JSON
// Lines). The handler waits for the job to finish before streaming; the
// caller owns closing the reader, and cancelling ctx aborts the stream.
func (c *Client) Results(ctx context.Context, id, format string) (io.ReadCloser, error) {
	q := url.Values{}
	if format != "" {
		q.Set("format", format)
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/results", q, nil, "")
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Stream implements campaign.Runner: it waits for the job, then decodes
// the JSONL result stream back into events and delivers them to the
// sinks in the service's deterministic order. Floats survive the wire
// bit-exactly, so sink output (and aggregation) matches a local
// execution byte for byte. Every sink is closed exactly once.
//
// Stream verifies completeness: a server-side failure after the stream
// has started cannot change the HTTP status, it can only end the body
// early — so the received event count is checked against the job's
// total and a short stream is an error, never silent partial data.
func (c *Client) Stream(ctx context.Context, id string, sinks ...campaign.Sink) error {
	return campaign.CloseSinks(c.stream(ctx, id, sinks), sinks...)
}

func (c *Client) stream(ctx context.Context, id string, sinks []campaign.Sink) error {
	// Wait first: the snapshot pins how many events a complete stream
	// carries (and surfaces failed/cancelled states with the service's
	// typed error before any bytes flow).
	snap, err := c.Wait(ctx, id)
	if err != nil {
		return err
	}
	body, err := c.Results(ctx, id, "jsonl")
	if err != nil {
		return err
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	// The buffer starts at the Scanner's default size and grows only
	// for a long line, up to the 1 MiB cap.
	sc.Buffer(nil, 1<<20)
	var events int64
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		ev, err := campaign.DecodeEvent(line)
		if err != nil {
			return err
		}
		events++
		for _, s := range sinks {
			if err := s.Consume(ctx, ev); err != nil {
				return fmt.Errorf("client: sink: %w", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: read result stream: %w", err)
	}
	if events != snap.Total {
		return fmt.Errorf("client: job %s result stream truncated: got %d of %d events", id, events, snap.Total)
	}
	return nil
}

// Execute implements campaign.Executor: it submits the spec, then
// streams the job's events into an Aggregator and the sinks in opts.
// Aggregation is a deterministic fold over the stream, so the returned
// aggregates are bit-identical to the ones a local execution computes.
// Every sink is closed exactly once.
func (c *Client) Execute(ctx context.Context, spec campaign.Spec, opts campaign.ExecOptions) (*campaign.Result, error) {
	agg, err := spec.NewAggregator(opts.KeepPerRun)
	if err != nil {
		return nil, campaign.CloseSinks(err, opts.Sinks...)
	}
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, campaign.CloseSinks(err, opts.Sinks...)
	}
	// Stream waits for completion itself, surfaces failed/cancelled
	// terminal states as errors, and closes every sink (including the
	// aggregator, whose Close validates the stream was complete).
	if err := c.Stream(ctx, job.ID, append([]campaign.Sink{agg}, opts.Sinks...)...); err != nil {
		return nil, err
	}
	return agg.Result(), nil
}

// Describe implements campaign.Runner: GET /v1.
func (c *Client) Describe(ctx context.Context) (campaign.Description, error) {
	var d campaign.Description
	err := c.getJSON(ctx, "/v1", nil, &d)
	return d, err
}

// Techniques lists the technique names the service accepts:
// GET /v1/techniques.
func (c *Client) Techniques(ctx context.Context) ([]string, error) {
	var out struct {
		Techniques []string `json:"techniques"`
	}
	err := c.getJSON(ctx, "/v1/techniques", nil, &out)
	return out.Techniques, err
}

// Backends lists the registered simulation backends: GET /v1/backends.
func (c *Client) Backends(ctx context.Context) ([]string, error) {
	var out struct {
		Backends []string `json:"backends"`
	}
	err := c.getJSON(ctx, "/v1/backends", nil, &out)
	return out.Backends, err
}

// Live checks the liveness probe: GET /healthz. It answers "is the
// process up" only — a draining node is still live. Goes through the
// client's retry policy.
func (c *Client) Live(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, "application/json")
	if err != nil {
		return err
	}
	return drainClose(resp.Body)
}

// Health fetches the node's readiness document: GET /v1/health. A
// draining node answers HTTP 503 but still serves the document, so the
// call succeeds with Ready=false — the node is alive, just refusing new
// jobs. Any other failure (transport error, non-health response) is an
// error.
//
// Health probes are deliberately exempt from the retry policy: exactly
// one attempt per call, regardless of Options.Retry. A probe reports the
// node's state at one moment; retrying a failed probe after a backoff
// would only delay that answer.
func (c *Client) Health(ctx context.Context) (campaign.Health, error) {
	resp, err := c.doOnce(ctx, http.MethodGet, "/v1/health", nil, nil, "application/json")
	if err != nil {
		// A draining node's 503 carries the health document in the error
		// body doOnce could not fit into the envelope; re-fetch semantics
		// are simpler: decode the raw message as a Health document.
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
			var h campaign.Health
			if jsonErr := json.Unmarshal([]byte(apiErr.Message), &h); jsonErr == nil && h.Ok {
				return h, nil
			}
		}
		return campaign.Health{}, err
	}
	defer drainClose(resp.Body)
	var h campaign.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return campaign.Health{}, fmt.Errorf("client: decode /v1/health response: %w", err)
	}
	return h, nil
}
