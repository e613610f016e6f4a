package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/campaign"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/testutil"
)

// gate is a controllable backend so tests can hold jobs in the running
// state deterministically.
var gate = testutil.NewGateBackend("client-gate")

func init() { engine.Register(gate) }

// newService starts an in-process dlsimd equivalent and a client for it.
func newService(t *testing.T, cfg jobs.Config) (*Client, *jobs.Manager) {
	t.Helper()
	mgr := jobs.NewManager(cfg)
	srv := httptest.NewServer(service.New(mgr).Handler())
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, mgr
}

func contractSpec(seed uint64, reps int) campaign.Spec {
	return campaign.Spec{
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{256},
		Ps:           []int{4},
		Workload:     campaign.Workload{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         seed,
		SeedPolicy:   campaign.SeedFacade,
	}
}

// TestContractLocalRemoteEquivalence: the same campaign.Spec executed
// through the LocalRunner, through the remote client against an
// in-process dlsimd, and through the facade yields bit-identical JSONL
// result streams and aggregates.
func TestContractLocalRemoteEquivalence(t *testing.T) {
	ctx := context.Background()
	remote, _ := newService(t, jobs.Config{})
	spec := contractSpec(911, 25)

	// Local: the in-process Executor, observed by a JSONL sink.
	local := campaign.NewLocal(campaign.LocalConfig{})
	var localJSONL bytes.Buffer
	localRes, err := campaign.Run(ctx, local, spec, campaign.NewJSONLSink(&localJSONL))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Remote: generic Runner path (submit → wait → stream → aggregate).
	remoteRes, err := campaign.Run(ctx, remote, spec)
	if err != nil {
		t.Fatal(err)
	}
	rjob, err := remote.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rjob.Hash != hash {
		t.Fatalf("remote hash %s != local spec hash %s", rjob.Hash, hash)
	}
	body, err := remote.Results(ctx, rjob.ID, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	remoteJSONL, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical raw streams, bit-identical aggregates.
	if !bytes.Equal(localJSONL.Bytes(), remoteJSONL) {
		t.Fatalf("JSONL streams differ:\nlocal:  %.200s\nremote: %.200s", localJSONL.Bytes(), remoteJSONL)
	}
	if len(localRes.Aggregates) != len(remoteRes.Aggregates) {
		t.Fatalf("aggregate counts differ: %d vs %d", len(localRes.Aggregates), len(remoteRes.Aggregates))
	}
	for i := range localRes.Aggregates {
		l, r := localRes.Aggregates[i], remoteRes.Aggregates[i]
		if l.Wasted != r.Wasted || l.Makespan != r.Makespan || l.Speedup != r.Speedup || l.MeanOps != r.MeanOps {
			t.Fatalf("aggregate %d differs:\nlocal:  %+v\nremote: %+v", i, l, r)
		}
	}
	if localRes.Overall != remoteRes.Overall {
		t.Fatalf("overall roll-up differs: %+v vs %+v", localRes.Overall, remoteRes.Overall)
	}

	// With KeepPerRun, the client's fold keeps every run's metrics as
	// decoded off the wire: the same values as the local engine's.
	keep := campaign.ExecOptions{KeepPerRun: true}
	localKeep, err := local.Execute(ctx, spec, keep)
	if err != nil {
		t.Fatal(err)
	}
	remoteKeep, err := remote.Execute(ctx, spec, keep)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range localKeep.Aggregates {
		r := remoteKeep.Aggregates[i]
		if len(l.PerRun) != spec.Replications || !slices.Equal(l.PerRun, r.PerRun) {
			t.Fatalf("aggregate %d per-run metrics differ:\nlocal:  %+v\nremote: %+v", i, l.PerRun, r.PerRun)
		}
	}

	// The legacy facade computes the same numbers: the spec above uses
	// the facade seed policy, so MeanWastedTime over the same options is
	// the first technique's aggregate, bit for bit.
	facade, err := repro.MeanWastedTime("FAC2", 256, 4, 25,
		repro.WithExponential(1), repro.WithOverhead(0.5), repro.WithSeed(911))
	if err != nil {
		t.Fatal(err)
	}
	if facade != localRes.Aggregates[0].Wasted.Mean {
		t.Fatalf("facade mean %v != runner mean %v", facade, localRes.Aggregates[0].Wasted.Mean)
	}
}

// TestContractStreamDecodesEvents checks the client's Stream against a
// CSV rendering: decoded events re-encoded client-side must match the
// server's own CSV byte for byte (the decode is lossless).
func TestContractStreamDecodesEvents(t *testing.T) {
	ctx := context.Background()
	remote, _ := newService(t, jobs.Config{})
	spec := contractSpec(77, 8)

	job, err := remote.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var clientCSV bytes.Buffer
	if err := remote.Stream(ctx, job.ID, campaign.NewCSVSink(&clientCSV)); err != nil {
		t.Fatal(err)
	}
	body, err := remote.Results(ctx, job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	serverCSV, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clientCSV.Bytes(), serverCSV) {
		t.Fatalf("client-side CSV differs from server CSV:\nclient: %.200s\nserver: %.200s", clientCSV.Bytes(), serverCSV)
	}
}

// TestErrorEnvelopes exercises every /v1 failure path and asserts the
// structured envelope: HTTP status, stable code, and the mapping onto
// the campaign sentinel errors.
func TestErrorEnvelopes(t *testing.T) {
	ctx := context.Background()
	c, mgr := newService(t, jobs.Config{QueueDepth: 1, Concurrency: 1})

	assertAPIError := func(t *testing.T, err error, status int, code string) *APIError {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("got %T (%v), want *APIError", err, err)
		}
		if apiErr.Status != status || apiErr.Code != code {
			t.Fatalf("got HTTP %d code %q (%s), want HTTP %d code %q",
				apiErr.Status, apiErr.Code, apiErr.Message, status, code)
		}
		return apiErr
	}

	t.Run("invalid spec", func(t *testing.T) {
		spec := contractSpec(1, 0) // replications must be positive
		_, err := c.Submit(ctx, spec)
		assertAPIError(t, err, http.StatusBadRequest, campaign.CodeInvalidSpec)
	})
	t.Run("duplicate technique", func(t *testing.T) {
		spec := contractSpec(1, 2)
		spec.Techniques = []string{"FAC2", "FAC2"}
		_, err := c.Submit(ctx, spec)
		apiErr := assertAPIError(t, err, http.StatusBadRequest, campaign.CodeInvalidSpec)
		if !strings.Contains(apiErr.Message, "duplicate technique") {
			t.Fatalf("message %q does not name the duplicate", apiErr.Message)
		}
	})
	t.Run("speeds for another p", func(t *testing.T) {
		// Rejected at submit, not when the job reaches the p = 4 point.
		spec := contractSpec(1, 2)
		spec.Speeds = []float64{1, 2}
		_, err := c.Submit(ctx, spec)
		apiErr := assertAPIError(t, err, http.StatusBadRequest, campaign.CodeInvalidSpec)
		if !strings.Contains(apiErr.Message, "speeds") {
			t.Fatalf("message %q does not name the speeds", apiErr.Message)
		}
	})
	t.Run("malformed body", func(t *testing.T) {
		resp, err := http.Post(c.base+"/v1/jobs", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), campaign.CodeInvalidArgument) {
			t.Fatalf("malformed body = %d %s, want 400 %s", resp.StatusCode, raw, campaign.CodeInvalidArgument)
		}
	})
	t.Run("not found", func(t *testing.T) {
		_, err := c.Job(ctx, "j999")
		apiErr := assertAPIError(t, err, http.StatusNotFound, campaign.CodeNotFound)
		if !errors.Is(apiErr, campaign.ErrNotFound) {
			t.Fatal("not_found does not unwrap to campaign.ErrNotFound")
		}
		if err := c.Cancel(ctx, "j999"); !errors.Is(err, campaign.ErrNotFound) {
			t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
		}
	})
	t.Run("bad list cursor", func(t *testing.T) {
		_, err := c.Jobs(ctx, ListOptions{After: "j999"})
		assertAPIError(t, err, http.StatusNotFound, campaign.CodeNotFound)
	})
	t.Run("bad limit", func(t *testing.T) {
		var out JobList
		err := c.getJSON(ctx, "/v1/jobs", map[string][]string{"limit": {"-3"}}, &out)
		assertAPIError(t, err, http.StatusBadRequest, campaign.CodeInvalidArgument)
	})

	// Lifecycle-dependent paths share one gated job.
	gate.Reset()
	defer gate.Release()
	gspec := contractSpec(5, 3)
	gspec.Backend = gate.Name()
	job, err := c.Submit(ctx, gspec)
	if err != nil {
		t.Fatal(err)
	}
	// The runner must pop the job off the queue (freeing its slot)
	// before the queue-capacity subtest below fills it again.
	for {
		snap, err := c.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == campaign.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	t.Run("results wait=0 before completion", func(t *testing.T) {
		resp, err := http.Get(c.base + "/v1/jobs/" + job.ID + "/results?wait=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(raw), campaign.CodeNotDone) {
			t.Fatalf("wait=0 = %d %s, want 409 %s", resp.StatusCode, raw, campaign.CodeNotDone)
		}
	})
	t.Run("bad wait parameter", func(t *testing.T) {
		var snap campaign.Snapshot
		err := c.getJSON(ctx, "/v1/jobs/"+job.ID, map[string][]string{"wait": {"maybe"}}, &snap)
		assertAPIError(t, err, http.StatusBadRequest, campaign.CodeInvalidArgument)
	})
	t.Run("unknown format", func(t *testing.T) {
		_, err := c.Results(ctx, job.ID, "xml")
		assertAPIError(t, err, http.StatusBadRequest, campaign.CodeInvalidArgument)
	})
	t.Run("queue full", func(t *testing.T) {
		// The gated job occupies the single runner; one more fills the
		// queue, the next must bounce.
		q1 := contractSpec(6, 3)
		q1.Backend = gate.Name()
		if _, err := c.Submit(ctx, q1); err != nil {
			t.Fatal(err)
		}
		q2 := contractSpec(7, 3)
		q2.Backend = gate.Name()
		_, err := c.Submit(ctx, q2)
		apiErr := assertAPIError(t, err, http.StatusServiceUnavailable, campaign.CodeQueueFull)
		if !errors.Is(apiErr, campaign.ErrQueueFull) {
			t.Fatal("queue_full does not unwrap to campaign.ErrQueueFull")
		}
	})
	t.Run("cancelled job results", func(t *testing.T) {
		if err := c.Cancel(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Wait(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
		_, err := c.Results(ctx, job.ID, "")
		assertAPIError(t, err, http.StatusConflict, campaign.CodeJobCancelled)
		if _, err := campaign.Run(ctx, c, campaign.Spec{}); err == nil {
			t.Fatal("Run with empty spec succeeded")
		}
	})
}

// TestDiscoveryPaginationNegotiation covers the v1 discovery endpoints,
// job listing pagination, and Accept-header content negotiation.
func TestDiscoveryPaginationNegotiation(t *testing.T) {
	ctx := context.Background()
	c, _ := newService(t, jobs.Config{})

	desc, err := c.Describe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Service != "dlsimd" || desc.APIVersion != campaign.APIVersion {
		t.Fatalf("describe = %+v", desc)
	}
	local := campaign.LocalDescription()
	if strings.Join(desc.Techniques, ",") != strings.Join(local.Techniques, ",") ||
		strings.Join(desc.Backends, ",") != strings.Join(local.Backends, ",") ||
		strings.Join(desc.SeedPolicies, ",") != strings.Join(local.SeedPolicies, ",") {
		t.Fatalf("remote description %+v differs from local %+v", desc, local)
	}
	techs, err := c.Techniques(ctx)
	if err != nil {
		t.Fatal(err)
	}
	backends, err := c.Backends(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(techs) == 0 || len(backends) == 0 {
		t.Fatalf("empty discovery: %d techniques, %d backends", len(techs), len(backends))
	}
	if err := c.Live(ctx); err != nil {
		t.Fatal(err)
	}
	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !health.Ok || !health.Ready || health.Draining || health.Service != "dlsimd" {
		t.Fatalf("health = %+v, want ok+ready dlsimd", health)
	}

	// Five distinct jobs, paged two at a time in submission order.
	var ids []string
	for seed := uint64(100); seed < 105; seed++ {
		job, err := c.Submit(ctx, contractSpec(seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	var got []string
	after := ""
	pages := 0
	for {
		page, err := c.Jobs(ctx, ListOptions{Limit: 2, After: after})
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, s := range page.Jobs {
			got = append(got, s.ID)
		}
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	if pages != 3 || strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("pagination walked %d pages, ids %v; want 3 pages of %v", pages, got, ids)
	}
	all, err := c.Jobs(ctx, ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Jobs) != 5 || all.NextAfter != "" {
		t.Fatalf("unpaged list = %d jobs, next %q", len(all.Jobs), all.NextAfter)
	}

	// Accept-header negotiation: no ?format, Accept: text/csv → CSV.
	if _, err := c.Wait(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+ids[0]+"/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" || !strings.HasPrefix(string(raw), "point,technique,") {
		t.Fatalf("Accept: text/csv negotiated %q: %.60s", ct, raw)
	}
}
