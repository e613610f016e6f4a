package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/campaign"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/testutil"
	"repro/internal/workload"
)

var (
	gateFlight = testutil.NewGateBackend("svc-gate-flight")
	gateCancel = testutil.NewGateBackend("svc-gate-cancel")
)

func init() {
	engine.Register(gateFlight)
	engine.Register(gateCancel)
}

func specJSON(t *testing.T, backend string, seed uint64, reps int) []byte {
	t.Helper()
	data, err := json.Marshal(engine.CampaignSpec{
		Backend:      backend,
		Techniques:   []string{"FAC2", "SS"},
		Ns:           []int64{128},
		Ps:           []int{2},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// client is a minimal typed wrapper over the test server.
type client struct {
	t    *testing.T
	base string
}

func (c *client) do(method, path string, body []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (c *client) submit(spec []byte) (id string, deduped bool) {
	c.t.Helper()
	code, body := c.do(http.MethodPost, "/v1/jobs", spec)
	if code != http.StatusAccepted {
		c.t.Fatalf("submit = %d: %s", code, body)
	}
	var resp struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		c.t.Fatal(err)
	}
	return resp.ID, resp.Deduped
}

func (c *client) waitState(id string, want jobs.State) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			c.t.Fatalf("status %s = %d: %s", id, code, body)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			c.t.Fatal(err)
		}
		if snap.State == want {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s stuck in %s, want %s", id, snap.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServiceSingleflightStreamingAndCancel is the PR's integration
// acceptance test: the daemon's handler on an ephemeral port accepts
// two concurrent identical submissions, executes the campaign exactly
// once (singleflight + content-addressed cache), streams byte-identical
// JSON Lines to both clients, and cancels a third long-running job
// mid-flight — all without leaking goroutines.
func TestServiceSingleflightStreamingAndCancel(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	gateFlight.Reset()
	gateCancel.Reset()
	baseRuns := gateFlight.Runs.Load()

	mgr := jobs.NewManager(jobs.Config{QueueDepth: 8, Concurrency: 2})
	// httptest.NewServer binds 127.0.0.1 on an ephemeral port, exactly
	// like dlsimd with -addr 127.0.0.1:0.
	srv := httptest.NewServer(New(mgr).Handler())
	defer func() {
		srv.Close()
		mgr.Close()
	}()
	c := &client{t: t, base: srv.URL}

	// --- Singleflight: two concurrent identical submissions, one run.
	const reps = 5
	spec := specJSON(t, "svc-gate-flight", 42, reps)
	firstID, deduped := c.submit(spec)
	if deduped {
		t.Fatal("first submission reported deduped")
	}
	c.waitState(firstID, jobs.StateRunning)
	secondID, deduped := c.submit(spec)
	if secondID != firstID || !deduped {
		t.Fatalf("concurrent identical submission got job %s (deduped %v); want shared %s", secondID, deduped, firstID)
	}

	// Both clients ask for results while the job is still gated; the
	// handler waits for completion, then streams.
	var wg sync.WaitGroup
	bodies := make([]string, 2)
	codes := make([]int, 2)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/jobs/" + firstID + "/results?format=jsonl")
			if err != nil {
				t.Errorf("results %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("results %d: %v", i, err)
				return
			}
			codes[i] = resp.StatusCode
			bodies[i] = string(out)
		}(i)
	}
	// Give both requests time to reach the wait, then open the gate.
	time.Sleep(20 * time.Millisecond)
	gateFlight.Release()
	wg.Wait()

	totalRuns := int64(2 * reps) // 2 techniques × 1 n × 1 p × reps
	if got := gateFlight.Runs.Load() - baseRuns; got != totalRuns {
		t.Fatalf("backend executed %d runs for 2 submissions, want exactly %d", got, totalRuns)
	}
	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("results %d = %d: %s", i, codes[i], bodies[i])
		}
	}
	if bodies[0] != bodies[1] {
		t.Fatal("the two clients received different result streams")
	}
	if got := strings.Count(bodies[0], "\n"); got != int(totalRuns) {
		t.Fatalf("results stream has %d lines, want %d", got, totalRuns)
	}
	for _, line := range strings.Split(strings.TrimRight(bodies[0], "\n"), "\n") {
		if !strings.HasPrefix(line, `{"point":`) {
			t.Fatalf("unexpected JSONL line: %s", line)
		}
	}

	// CSV rendering of the same job shares the replay path.
	code, csvBody := c.do(http.MethodGet, "/v1/jobs/"+firstID+"/results?format=csv", nil)
	if code != http.StatusOK || !strings.HasPrefix(string(csvBody), "point,technique,") {
		t.Fatalf("csv results = %d: %.60s", code, csvBody)
	}

	// --- Cancel a long-running job mid-flight.
	cancelID, _ := c.submit(specJSON(t, "svc-gate-cancel", 43, 50))
	c.waitState(cancelID, jobs.StateRunning)
	code, body := c.do(http.MethodDelete, "/v1/jobs/"+cancelID, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", code, body)
	}
	c.waitState(cancelID, jobs.StateCancelled)
	if code, body := c.do(http.MethodGet, "/v1/jobs/"+cancelID+"/results", nil); code != http.StatusConflict {
		t.Fatalf("results of cancelled job = %d: %s", code, body)
	}
	if gateCancel.Runs.Load() != 0 {
		t.Fatalf("cancelled job completed %d backend runs", gateCancel.Runs.Load())
	}

	// --- List shows all three submissions-worth of jobs.
	code, body = c.do(http.MethodGet, "/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	var list struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2 (dedup shares the first)", len(list.Jobs))
	}
	// The goroutine-leak check in the deferred CheckGoroutines runs
	// after srv.Close + mgr.Close — the graceful-shutdown path.
}

// TestServiceErrorsAndHealth covers the non-happy-path HTTP surface.
func TestServiceErrorsAndHealth(t *testing.T) {
	mgr := jobs.NewManager(jobs.Config{})
	srv := httptest.NewServer(New(mgr).Handler())
	defer func() {
		srv.Close()
		mgr.Close()
	}()
	c := &client{t: t, base: srv.URL}

	if code, body := c.do(http.MethodGet, "/healthz", nil); code != http.StatusOK || !strings.Contains(string(body), "true") {
		t.Fatalf("healthz = %d: %s", code, body)
	}
	if code, _ := c.do(http.MethodPost, "/v1/jobs", []byte("{not json")); code != http.StatusBadRequest {
		t.Fatalf("malformed spec = %d, want 400", code)
	}
	if code, _ := c.do(http.MethodPost, "/v1/jobs", []byte(`{"techniques":["FAC2"],"ns":[16],"ps":[2],"workload":{"kind":"constant","p1":1},"replications":0,"seed":1}`)); code != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d, want 400", code)
	}
	if code, _ := c.do(http.MethodGet, "/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
	if code, _ := c.do(http.MethodDelete, "/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", code)
	}

	// A completed job with an unknown format parameter is a 400; with
	// wait=0 on a fresh (queued/running) job, a 409.
	id, _ := c.submit(specJSON(t, "", 77, 2))
	if _, err := mgr.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if code, _ := c.do(http.MethodGet, "/v1/jobs/"+id+"/results?format=xml", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown format = %d, want 400", code)
	}
}

// TestServiceDiscoveryAndEnvelope covers the v1 discovery endpoints and
// the structured error envelope's wire shape.
func TestServiceDiscoveryAndEnvelope(t *testing.T) {
	mgr := jobs.NewManager(jobs.Config{})
	srv := httptest.NewServer(New(mgr).Handler())
	defer func() {
		srv.Close()
		mgr.Close()
	}()
	c := &client{t: t, base: srv.URL}

	var desc campaign.Description
	code, body := c.do(http.MethodGet, "/v1", nil)
	if err := json.Unmarshal(body, &desc); err != nil || code != http.StatusOK {
		t.Fatalf("GET /v1 = %d (%v): %s", code, err, body)
	}
	if desc.Service != "dlsimd" || desc.APIVersion != campaign.APIVersion ||
		len(desc.Techniques) == 0 || len(desc.Backends) == 0 || len(desc.SeedPolicies) != 4 {
		t.Fatalf("description = %+v", desc)
	}
	if desc.Execution != nil {
		t.Fatalf("execution should be omitted until SetExecution, got %+v", desc.Execution)
	}

	// SetExecution surfaces the daemon's effective configuration in the
	// discovery document.
	execSrv := New(mgr)
	execSrv.SetExecution(campaign.Execution{CPUs: 8, Workers: 4, Concurrency: 2})
	srv2 := httptest.NewServer(execSrv.Handler())
	defer srv2.Close()
	var desc2 campaign.Description
	code, body = (&client{t: t, base: srv2.URL}).do(http.MethodGet, "/v1", nil)
	if err := json.Unmarshal(body, &desc2); err != nil || code != http.StatusOK {
		t.Fatalf("GET /v1 with execution = %d (%v): %s", code, err, body)
	}
	if desc2.Execution == nil ||
		*desc2.Execution != (campaign.Execution{CPUs: 8, Workers: 4, Concurrency: 2}) {
		t.Fatalf("execution block = %+v", desc2.Execution)
	}
	code, body = c.do(http.MethodGet, "/v1/techniques", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "FAC2") {
		t.Fatalf("GET /v1/techniques = %d: %s", code, body)
	}
	code, body = c.do(http.MethodGet, "/v1/backends", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "sim") {
		t.Fatalf("GET /v1/backends = %d: %s", code, body)
	}

	// Every failure is the structured envelope with a stable code.
	code, body = c.do(http.MethodGet, "/v1/jobs/j999", nil)
	var envelope struct {
		Error struct {
			Code    string         `json:"code"`
			Message string         `json:"message"`
			Details map[string]any `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d (%v): %s", code, err, body)
	}
	if envelope.Error.Code != campaign.CodeNotFound || envelope.Error.Message == "" ||
		envelope.Error.Details["id"] != "j999" {
		t.Fatalf("envelope = %+v", envelope.Error)
	}

	// Pagination parameters are validated and reported in the envelope.
	if code, body := c.do(http.MethodGet, "/v1/jobs?limit=banana", nil); code != http.StatusBadRequest ||
		!strings.Contains(string(body), campaign.CodeInvalidArgument) {
		t.Fatalf("bad limit = %d: %s", code, body)
	}
	if code, body := c.do(http.MethodGet, "/v1/jobs?after=j999", nil); code != http.StatusNotFound ||
		!strings.Contains(string(body), campaign.CodeNotFound) {
		t.Fatalf("bad cursor = %d: %s", code, body)
	}

	// status ?wait=1 blocks until the job is terminal, so one round trip
	// observes the done state with no polling.
	id, _ := c.submit(specJSON(t, "", 99, 2))
	code, body = c.do(http.MethodGet, "/v1/jobs/"+id+"?wait=1", nil)
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil || code != http.StatusOK {
		t.Fatalf("wait=1 = %d (%v): %s", code, err, body)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("wait=1 returned state %s, want done", snap.State)
	}
}

// TestNegotiateFormat pins the Accept-header negotiation, including
// q-values: a client that explicitly refuses an encoding never gets it.
func TestNegotiateFormat(t *testing.T) {
	cases := []struct {
		query, accept, want string
		status              int
	}{
		{"", "", "jsonl", 0},
		{"format=csv", "application/jsonl", "csv", 0}, // explicit format wins
		{"format=xml", "", "", http.StatusBadRequest}, // unsupported explicit format
		{"", "text/csv", "csv", 0},
		{"", "application/jsonl", "jsonl", 0},
		{"", "application/x-ndjson", "jsonl", 0},
		{"", "*/*", "jsonl", 0},
		{"", "application/jsonl, text/csv;q=0", "jsonl", 0}, // CSV refused
		{"", "text/csv;q=0.1, application/jsonl;q=0.9", "jsonl", 0},
		{"", "application/jsonl;q=0.2, text/csv;q=0.8", "csv", 0},
		{"", "text/*", "csv", 0},
		{"", "text/html", "jsonl", 0}, // nothing we serve: lenient default
		// Everything we serve explicitly refused: 406, never a refused
		// encoding.
		{"", "application/json;q=0", "", http.StatusNotAcceptable},
		{"", "application/jsonl;q=0, text/csv;q=0", "", http.StatusNotAcceptable},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/j1/results?"+tc.query, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		got, status := negotiateFormat(req)
		if got != tc.want || status != tc.status {
			t.Errorf("negotiateFormat(query=%q, accept=%q) = (%q, %d), want (%q, %d)",
				tc.query, tc.accept, got, status, tc.want, tc.status)
		}
	}
}
