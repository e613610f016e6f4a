package mw

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/campaign"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(TenantFrom(r.Context())))
	})
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) campaign.ErrorEnvelope {
	t.Helper()
	var env campaign.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("rejection body is not an envelope: %v: %s", err, rec.Body.Bytes())
	}
	return env
}

func writeKeyfile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadKeyfile: format acceptance and rejection.
func TestLoadKeyfile(t *testing.T) {
	kr, err := LoadKeyfile(writeKeyfile(t, "# comment\n\nalice:s3cret\nbob:hunter2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tenant, ok := kr.Lookup("s3cret"); !ok || tenant != "alice" {
		t.Fatalf("Lookup(s3cret) = %q, %v", tenant, ok)
	}
	if tenant, ok := kr.Lookup("hunter2"); !ok || tenant != "bob" {
		t.Fatalf("Lookup(hunter2) = %q, %v", tenant, ok)
	}
	if _, ok := kr.Lookup("wrong"); ok {
		t.Fatal("unknown key resolved")
	}
	for _, bad := range []string{"nocolon\n", ":keyonly\n", "tenantonly:\n", ""} {
		if _, err := LoadKeyfile(writeKeyfile(t, bad)); err == nil {
			t.Errorf("key file %q accepted", bad)
		}
	}
}

// TestAuth: header extraction, tenant propagation, 401 envelope, and
// anonymous passthrough when auth is off.
func TestAuth(t *testing.T) {
	kr, err := LoadKeyfile(writeKeyfile(t, "alice:s3cret\n"))
	if err != nil {
		t.Fatal(err)
	}
	denials := 0
	h := Auth(kr, func() { denials++ })(okHandler())

	cases := []struct {
		name, header, value string
		status              int
		body                string
	}{
		{"bearer", "Authorization", "Bearer s3cret", 200, "alice"},
		{"x-api-key", "X-API-Key", "s3cret", 200, "alice"},
		{"wrong key", "X-API-Key", "nope", 401, ""},
		{"no key", "", "", 401, ""},
		{"malformed auth header", "Authorization", "Basic s3cret", 401, ""},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", "/v1/jobs", nil)
		if c.header != "" {
			req.Header.Set(c.header, c.value)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, rec.Code, c.status)
		}
		if c.status == 200 && rec.Body.String() != c.body {
			t.Fatalf("%s: tenant %q, want %q", c.name, rec.Body.String(), c.body)
		}
		if c.status == 401 {
			if env := decodeEnvelope(t, rec); env.Error.Code != campaign.CodeUnauthorized {
				t.Fatalf("%s: code %q, want unauthorized", c.name, env.Error.Code)
			}
		}
	}
	if denials != 3 {
		t.Fatalf("denied hook ran %d times, want 3", denials)
	}

	// Auth off: anonymous tenant, no rejection possible.
	rec := httptest.NewRecorder()
	Auth(nil, nil)(okHandler()).ServeHTTP(rec, httptest.NewRequest("GET", "/v1", nil))
	if rec.Code != 200 || rec.Body.String() != Anonymous {
		t.Fatalf("auth-off request = %d %q", rec.Code, rec.Body.String())
	}
}

// TestLimiter: bucket drains, refills on a fake clock, and isolates
// tenants.
func TestLimiter(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLimiter(2, 3) // 2 tokens/s, burst 3
	l.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := l.Allow("alice")
	if ok {
		t.Fatal("4th immediate request allowed past burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s] at 2 tokens/s", retry)
	}
	// Other tenants have their own bucket.
	if ok, _ := l.Allow("bob"); !ok {
		t.Fatal("bob rejected by alice's empty bucket")
	}
	// Half a second refills one token at rate 2.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("refilled token rejected")
	}
	if ok, _ := l.Allow("alice"); ok {
		t.Fatal("empty bucket allowed")
	}
}

// TestRateLimitMiddleware: 429 envelope with Retry-After.
func TestRateLimitMiddleware(t *testing.T) {
	l := NewLimiter(1, 1)
	rejected := 0
	h := Chain(okHandler(), Auth(nil, nil), RateLimit(l, func() { rejected++ }))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs", nil))
	if rec.Code != 200 {
		t.Fatalf("first request = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", rec.Code)
	}
	if env := decodeEnvelope(t, rec); env.Error.Code != campaign.CodeRateLimited {
		t.Fatalf("code %q, want rate_limited", env.Error.Code)
	}
	if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer ≥ 1", rec.Header().Get("Retry-After"))
	}
	if rejected != 1 {
		t.Fatalf("rejected hook ran %d times, want 1", rejected)
	}
}

// TestRoute: ID-bearing paths collapse, unknown paths stay bounded.
func TestRoute(t *testing.T) {
	cases := map[string]string{
		"/v1":                  "/v1",
		"/v1/jobs":             "/v1/jobs",
		"/v1/jobs/j42":         "/v1/jobs/{id}",
		"/v1/jobs/j42/results": "/v1/jobs/{id}/results",
		"/v1/jobs/j42/weird":   "other",
		"/v1/schedules":        "other",
		"/v1/schedules/s1":     "other",
		"/healthz":             "/healthz",
		"/metrics":             "/metrics",
		"/debug/pprof/":        "other",
	}
	for path, want := range cases {
		if got := Route(path); got != want {
			t.Errorf("Route(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestInstrument: the observe hook sees the normalized route, the real
// status and a plausible duration, for both explicit and implicit 200s.
func TestInstrument(t *testing.T) {
	var gotRoute string
	var gotStatus int
	mw := Instrument(func(route string, status int, elapsed time.Duration) {
		gotRoute, gotStatus = route, status
		if elapsed < 0 {
			t.Errorf("negative elapsed %v", elapsed)
		}
	})

	h := mw(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/jobs/j9", nil))
	if gotRoute != "/v1/jobs/{id}" || gotStatus != 404 {
		t.Fatalf("observed %q %d, want /v1/jobs/{id} 404", gotRoute, gotStatus)
	}

	h = mw(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("implicit 200"))
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	if gotRoute != "/healthz" || gotStatus != 200 {
		t.Fatalf("observed %q %d, want /healthz 200", gotRoute, gotStatus)
	}
}
