// Package mw holds the composable HTTP middleware in front of the
// dlsimd /v1 API: API-key authentication with tenant resolution,
// per-tenant token-bucket rate limiting, and request instrumentation.
// Each middleware is an independent func(http.Handler) http.Handler, so
// the daemon stacks exactly the ones its flags enable; rejections use
// the same structured error envelope (campaign.ErrorEnvelope, stable
// codes) as the API proper, so typed clients branch on middleware
// failures exactly like on handler failures.
//
// None of this ever touches campaign execution: middleware decides only
// whether a request reaches the handler, never what a simulation
// computes — determinism of results is structurally out of its reach.
package mw

import (
	"bufio"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/campaign"
)

// Anonymous is the tenant attributed to requests when authentication is
// disabled (no key file configured).
const Anonymous = "anonymous"

type tenantKey struct{}

// TenantFrom returns the tenant the Auth middleware resolved for this
// request, or Anonymous when no middleware ran.
func TenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok {
		return t
	}
	return Anonymous
}

// WithTenant returns a context carrying the tenant name — exported for
// tests and for handlers that bypass the middleware stack.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// Keyring maps API keys to tenant names, loaded from a key file of
// "tenant:key" lines. Lookups compare SHA-256 digests in constant time,
// so neither key length nor a near-miss leaks through timing.
type Keyring struct {
	entries []keyEntry
}

type keyEntry struct {
	tenant string
	digest [sha256.Size]byte
}

// NewKeyring builds a keyring from an in-memory key→tenant assignment
// (keys of the map are tenants, values their API keys) — the
// programmatic twin of LoadKeyfile, mostly for tests and embedding.
func NewKeyring(tenantKeys map[string]string) *Keyring {
	kr := &Keyring{}
	for tenant, key := range tenantKeys {
		kr.entries = append(kr.entries, keyEntry{tenant: tenant, digest: sha256.Sum256([]byte(key))})
	}
	return kr
}

// LoadKeyfile parses a key file: one "tenant:key" per line, blank lines
// and #-comments ignored. Tenant names must be non-empty and contain no
// colon; keys must be non-empty.
func LoadKeyfile(path string) (*Keyring, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kr := &Keyring{}
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tenant, key, ok := strings.Cut(line, ":")
		if !ok || tenant == "" || key == "" {
			return nil, fmt.Errorf("mw: %s:%d: want \"tenant:key\"", path, lineno)
		}
		kr.entries = append(kr.entries, keyEntry{tenant: tenant, digest: sha256.Sum256([]byte(key))})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(kr.entries) == 0 {
		return nil, fmt.Errorf("mw: %s: key file has no entries", path)
	}
	return kr, nil
}

// Lookup resolves an API key to its tenant. Every registered digest is
// compared regardless of early matches, keeping the scan time
// independent of which (if any) entry matched.
func (k *Keyring) Lookup(key string) (tenant string, ok bool) {
	d := sha256.Sum256([]byte(key))
	for _, e := range k.entries {
		if subtle.ConstantTimeCompare(d[:], e.digest[:]) == 1 && !ok {
			tenant, ok = e.tenant, true
		}
	}
	return tenant, ok
}

// apiKey extracts the presented key: "Authorization: Bearer <key>"
// wins, then the X-API-Key header.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, ok := strings.CutPrefix(h, "Bearer "); ok {
			return key
		}
	}
	return r.Header.Get("X-API-Key")
}

// Auth returns middleware resolving the request's tenant. With a nil
// keyring authentication is off: every request proceeds as Anonymous.
// With a keyring, a missing or unknown key is rejected with 401 and
// code "unauthorized"; denied (optional) is called per rejection — the
// metrics hook.
func Auth(keys *Keyring, denied func()) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tenant := Anonymous
			if keys != nil {
				key := apiKey(r)
				if key == "" {
					if denied != nil {
						denied()
					}
					writeEnvelope(w, http.StatusUnauthorized, campaign.CodeUnauthorized,
						"missing API key: send \"Authorization: Bearer <key>\" or X-API-Key")
					return
				}
				t, ok := keys.Lookup(key)
				if !ok {
					if denied != nil {
						denied()
					}
					writeEnvelope(w, http.StatusUnauthorized, campaign.CodeUnauthorized, "unknown API key")
					return
				}
				tenant = t
			}
			next.ServeHTTP(w, r.WithContext(WithTenant(r.Context(), tenant)))
		})
	}
}

// Limiter is a per-tenant token bucket: each tenant accrues rate tokens
// per second up to burst, and each request spends one.
type Limiter struct {
	rate  float64
	burst float64
	now   func() time.Time // injectable clock for tests

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter returns a limiter granting rate requests per second with
// the given burst capacity (values < 1 are raised to 1).
func NewLimiter(rate float64, burst int) *Limiter {
	if burst < 1 {
		burst = 1
	}
	return &Limiter{rate: rate, burst: float64(burst), now: time.Now, buckets: make(map[string]*bucket)}
}

// Allow spends one token from tenant's bucket. When the bucket is
// empty, ok is false and retryAfter is the wait until a token accrues.
func (l *Limiter) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, exists := l.buckets[tenant]
	if !exists {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// RateLimit returns middleware rejecting over-budget tenants with 429,
// code "rate_limited" and a Retry-After header (whole seconds, rounded
// up, minimum 1). rejected (optional) is called per rejection.
func RateLimit(l *Limiter, rejected func()) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ok, retryAfter := l.Allow(TenantFrom(r.Context()))
			if !ok {
				if rejected != nil {
					rejected()
				}
				secs := int(retryAfter/time.Second) + 1
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeEnvelope(w, http.StatusTooManyRequests, campaign.CodeRateLimited,
					"rate limit exceeded; retry after %ds", secs)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// Route normalizes a request path to its route pattern for metric
// labels, collapsing IDs so cardinality stays bounded. Unknown paths
// all map to "other".
func Route(path string) string {
	switch path {
	case "/v1", "/v1/techniques", "/v1/backends", "/v1/jobs", "/v1/health", "/healthz", "/metrics":
		return path
	}
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		if strings.HasSuffix(rest, "/results") && strings.Count(rest, "/") == 1 {
			return "/v1/jobs/{id}/results"
		}
		if !strings.Contains(rest, "/") {
			return "/v1/jobs/{id}"
		}
	}
	return "other"
}

// statusWriter captures the response status for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the wrapped writer so streaming handlers (results)
// keep flushing through the middleware stack.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument returns middleware observing every request: observe is
// called with the normalized route, the response status and the
// handling duration. The telemetry wiring lives in the daemon; the
// middleware only measures.
func Instrument(observe func(route string, status int, elapsed time.Duration)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			observe(Route(r.URL.Path), sw.status, time.Since(start))
		})
	}
}

// Chain composes middleware outermost-first: Chain(h, a, b) serves
// a(b(h)).
func Chain(h http.Handler, mws ...func(http.Handler) http.Handler) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// writeEnvelope emits the structured /v1 error envelope — the same
// document internal/service produces, so middleware rejections are
// indistinguishable in shape from handler rejections.
func writeEnvelope(w http.ResponseWriter, status int, code string, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(campaign.ErrorEnvelope{Error: campaign.ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
