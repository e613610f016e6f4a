package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/campaign"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/mw"
	"repro/internal/testutil"
)

var gateQuota = testutil.NewGateBackend("svc-gate-quota")

func init() {
	engine.Register(gateQuota)
}

// authedDo issues a request with an API key attached.
func authedDo(t *testing.T, base, key, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func envelopeCode(t *testing.T, body []byte) string {
	t.Helper()
	var env campaign.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode envelope %q: %v", body, err)
	}
	return env.Error.Code
}

// TestScheduleRoutesAbsentWithoutScheduler: the service has no
// recurring schedules, so every route older daemons served under
// /v1/schedules answers 404 like any unknown path.
func TestScheduleRoutesAbsentWithoutScheduler(t *testing.T) {
	mgr := jobs.NewManager(jobs.Config{QueueDepth: 2, Concurrency: 1})
	defer mgr.Close()
	srv := httptest.NewServer(New(mgr).Handler())
	defer srv.Close()
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/schedules"},
		{http.MethodGet, "/v1/schedules"},
		{http.MethodGet, "/v1/schedules/s1"},
		{http.MethodDelete, "/v1/schedules/s1"},
	} {
		if code, _ := authedDo(t, srv.URL, "", probe.method, probe.path, nil); code != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", probe.method, probe.path, code)
		}
	}
}

// TestSubmitQuotaAndAuthMapping: over-quota submissions surface as 403
// quota_exceeded envelopes, bad keys as 401 unauthorized, and the
// rate limiter as 429 with a Retry-After header — the full middleware
// chain over the real service handler.
func TestSubmitQuotaAndAuthMapping(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	gateQuota.Reset()
	mgr := jobs.NewManager(jobs.Config{QueueDepth: 8, Concurrency: 1, QuotaQueued: 1})
	keys := mw.NewKeyring(map[string]string{"alice": "a-key"})
	// Burst of exactly 3 with negligible refill: alice's three submits
	// pass the limiter (the third reaching the quota check), then the
	// bucket is dry.
	lim := mw.NewLimiter(0.01, 3)
	srv := httptest.NewServer(mw.Chain(New(mgr).Handler(),
		mw.Auth(keys, nil), mw.RateLimit(lim, nil)))
	defer func() {
		srv.Close()
		gateQuota.Release()
		mgr.Close()
	}()

	// No key → 401 before the handler runs.
	if code, resp := authedDo(t, srv.URL, "", http.MethodPost, "/v1/jobs", specJSON(t, "svc-gate-quota", 1, 1)); code != http.StatusUnauthorized || envelopeCode(t, resp) != campaign.CodeUnauthorized {
		t.Fatalf("anonymous submit = %d %s", code, resp)
	}

	// First job occupies the single worker (gated backend), second
	// fills alice's queued quota of one, third is rejected 403.
	if code, resp := authedDo(t, srv.URL, "a-key", http.MethodPost, "/v1/jobs", specJSON(t, "svc-gate-quota", 1, 1)); code != http.StatusAccepted {
		t.Fatalf("first submit = %d %s", code, resp)
	}
	waitRunning := time.Now().Add(5 * time.Second)
	for gateQuota.Started.Load() == 0 {
		if time.Now().After(waitRunning) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, resp := authedDo(t, srv.URL, "a-key", http.MethodPost, "/v1/jobs", specJSON(t, "svc-gate-quota", 2, 1)); code != http.StatusAccepted {
		t.Fatalf("second submit = %d %s", code, resp)
	}
	code, resp := authedDo(t, srv.URL, "a-key", http.MethodPost, "/v1/jobs", specJSON(t, "svc-gate-quota", 3, 1))
	if code != http.StatusForbidden || envelopeCode(t, resp) != campaign.CodeQuotaExceeded {
		t.Fatalf("over-quota submit = %d %s", code, resp)
	}

	// The burst is spent; the next request rate-limits with a
	// Retry-After hint.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs", nil)
	req.Header.Set("Authorization", "Bearer a-key")
	last, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer last.Body.Close()
	body, _ := io.ReadAll(last.Body)
	if last.StatusCode != http.StatusTooManyRequests || envelopeCode(t, body) != campaign.CodeRateLimited {
		t.Fatalf("dry bucket = %d %s", last.StatusCode, body)
	}
	if last.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}
