package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/campaign"
	"repro/internal/jobs"
)

// TestHealthV1ReadinessAndDrain pins the /v1/health contract: 200 with
// a full document while accepting, 503 — still carrying the document —
// once draining, and hook-decorated fields either way. Liveness
// (/healthz) never flips.
func TestHealthV1ReadinessAndDrain(t *testing.T) {
	mgr := jobs.NewManager(jobs.Config{})
	svc := New(mgr)
	svc.SetHealthHook(func(h *campaign.Health) {
		h.Journal = "ok"
		h.Auth = true
	})
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		mgr.Close()
	}()
	c := &client{t: t, base: srv.URL}

	getHealth := func() (int, campaign.Health) {
		t.Helper()
		code, body := c.do(http.MethodGet, "/v1/health", nil)
		var h campaign.Health
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("health body %q: %v", body, err)
		}
		return code, h
	}

	code, h := getHealth()
	if code != http.StatusOK {
		t.Fatalf("accepting health = %d, want 200", code)
	}
	if !h.Ok || !h.Ready || h.Draining || h.Service != "dlsimd" {
		t.Fatalf("accepting document = %+v", h)
	}
	if h.Journal != "ok" || !h.Auth {
		t.Fatalf("health hook fields missing: %+v", h)
	}

	// Drain the manager: the status code flips for probes, the document
	// stays decodable, and the hook still runs.
	mgr.Drain()
	code, h = getHealth()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining health = %d, want 503", code)
	}
	if !h.Ok || h.Ready || !h.Draining || h.Journal != "ok" {
		t.Fatalf("draining document = %+v", h)
	}
	// Liveness is a different question and must not flip.
	if code, _ := c.do(http.MethodGet, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", code)
	}
}
