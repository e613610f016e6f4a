package campaign_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/campaign"
)

// TestAPISurfaceSnapshot pins the public shape of the campaign
// package's core types. Several of them are aliases promoting
// internal/engine and internal/jobs types into the public API, so a
// field rename, removal or type change in those internal packages — or
// a drift in the Runner interface itself — silently breaks external
// consumers and the /v1 wire contract. This test turns such drift into
// a build-red diff: if a change here is intentional, it is an API
// change and the snapshot (plus API.md) must be updated with it.
func TestAPISurfaceSnapshot(t *testing.T) {
	snap := map[string]string{
		"Spec": "Backend string json=backend,omitempty; Techniques []string json=techniques; " +
			"Ns []int64 json=ns; Ps []int json=ps; Workload workload.Spec json=workload; " +
			"H float64 json=h,omitempty; HInDynamics bool json=h_in_dynamics,omitempty; " +
			"PerMessageCost float64 json=per_message_cost,omitempty; " +
			"Speeds []float64 json=speeds,omitempty; StartTimes []float64 json=start_times,omitempty; " +
			"MinChunk int64 json=min_chunk,omitempty; Chunk int64 json=chunk,omitempty; " +
			"First int64 json=first,omitempty; Last int64 json=last,omitempty; " +
			"Alpha float64 json=alpha,omitempty; Weights []float64 json=weights,omitempty; " +
			"Replications int json=replications; Seed uint64 json=seed; " +
			"SeedPolicy string json=seed_policy,omitempty; RepOffset int json=rep_offset,omitempty",
		"Workload": "Kind string json=kind; P1 float64 json=p1,omitempty; P2 float64 json=p2,omitempty; " +
			"P3 float64 json=p3,omitempty; N int64 json=n,omitempty; Times []float64 json=times,omitempty",
		"RunMetrics": "Wasted float64 json=wasted; Makespan float64 json=makespan; " +
			"Speedup float64 json=speedup; SchedOps int64 json=sched_ops",
		"Event":          "Point int; Rep int; Spec engine.RunSpec; Metrics engine.RunMetrics",
		"MetricsPartial": "Point int; RepLo int; Runs []engine.RunMetrics",
		"Aggregate": "Spec engine.RunSpec; Wasted metrics.Summary; Makespan metrics.Summary; " +
			"Speedup metrics.Summary; MeanOps float64; PerRun []engine.RunMetrics",
		"Result": "Aggregates []engine.Aggregate; Overall metrics.Accumulator",
		"Snapshot": "ID string json=id; Hash string json=hash; Tenant string json=tenant,omitempty; " +
			"State jobs.State json=state; " +
			"Total int64 json=total; Completed int64 json=completed; Submissions int json=submissions; " +
			"RepOffset int json=rep_offset,omitempty; " +
			"Error string json=error,omitempty; CreatedAt time.Time json=created_at; " +
			"StartedAt *time.Time json=started_at,omitempty; FinishedAt *time.Time json=finished_at,omitempty",
		"Job": "ID string json=id; Hash string json=hash; Deduped bool json=deduped",
		"Description": "Service string json=service; APIVersion string json=api_version; " +
			"Techniques []string json=techniques; Backends []string json=backends; " +
			"SeedPolicies []string json=seed_policies; " +
			"Execution *campaign.Execution json=execution,omitempty",
		"Execution": "CPUs int json=cpus; Workers int json=workers; " +
			"ChunkSize int json=chunk_size; Concurrency int json=concurrency",
		"ErrorBody": "Code string json=code; Message string json=message; " +
			"Details map[string]interface {} json=details,omitempty",
		"ErrorEnvelope": "Error campaign.ErrorBody json=error",
		"Health": "Ok bool json=ok; Ready bool json=ready; Draining bool json=draining,omitempty; " +
			"QueueDepth int json=queue_depth; Running int json=running; " +
			"Journal string json=journal,omitempty; Auth bool json=auth; " +
			"Service string json=service,omitempty",
	}
	types := map[string]reflect.Type{
		"Spec":           reflect.TypeOf(campaign.Spec{}),
		"Workload":       reflect.TypeOf(campaign.Workload{}),
		"RunMetrics":     reflect.TypeOf(campaign.RunMetrics{}),
		"Event":          reflect.TypeOf(campaign.Event{}),
		"MetricsPartial": reflect.TypeOf(campaign.MetricsPartial{}),
		"Aggregate":      reflect.TypeOf(campaign.Aggregate{}),
		"Result":         reflect.TypeOf(campaign.Result{}),
		"Snapshot":       reflect.TypeOf(campaign.Snapshot{}),
		"Job":            reflect.TypeOf(campaign.Job{}),
		"Description":    reflect.TypeOf(campaign.Description{}),
		"Execution":      reflect.TypeOf(campaign.Execution{}),
		"ErrorBody":      reflect.TypeOf(campaign.ErrorBody{}),
		"ErrorEnvelope":  reflect.TypeOf(campaign.ErrorEnvelope{}),
		"Health":         reflect.TypeOf(campaign.Health{}),
	}
	for name, typ := range types {
		want, ok := snap[name]
		if !ok {
			t.Errorf("no snapshot for %s", name)
			continue
		}
		if got := structShape(typ); got != want {
			t.Errorf("campaign.%s drifted from the API snapshot:\n got: %s\nwant: %s", name, got, want)
		}
	}

	// The Runner contract itself.
	wantMethods := []string{
		"Cancel(context.Context, string) error",
		"Describe(context.Context) (campaign.Description, error)",
		"Stream(context.Context, string, ...engine.Sink) error",
		"Submit(context.Context, engine.CampaignSpec) (campaign.Job, error)",
		"Wait(context.Context, string) (jobs.Snapshot, error)",
	}
	rt := reflect.TypeOf((*campaign.Runner)(nil)).Elem()
	var got []string
	for i := 0; i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		got = append(got, m.Name+strings.TrimPrefix(m.Type.String(), "func"))
	}
	if strings.Join(got, "; ") != strings.Join(wantMethods, "; ") {
		t.Errorf("Runner interface drifted:\n got: %s\nwant: %s",
			strings.Join(got, "; "), strings.Join(wantMethods, "; "))
	}

	// The stable error codes are a wire contract; renaming one breaks
	// deployed clients.
	codes := map[string]string{
		campaign.CodeInvalidArgument: "invalid_argument",
		campaign.CodeInvalidSpec:     "invalid_spec",
		campaign.CodeNotFound:        "not_found",
		campaign.CodeQueueFull:       "queue_full",
		campaign.CodeShuttingDown:    "shutting_down",
		campaign.CodeNotDone:         "job_not_done",
		campaign.CodeJobFailed:       "job_failed",
		campaign.CodeJobCancelled:    "job_cancelled",
		campaign.CodeNotAcceptable:   "not_acceptable",
		campaign.CodeInternal:        "internal",
		campaign.CodeUnauthorized:    "unauthorized",
		campaign.CodeRateLimited:     "rate_limited",
		campaign.CodeQuotaExceeded:   "quota_exceeded",
	}
	for got, want := range codes {
		if got != want {
			t.Errorf("error code drifted: %q, want %q", got, want)
		}
	}
	if campaign.APIVersion != "v1" {
		t.Errorf("APIVersion = %q, want v1", campaign.APIVersion)
	}
}

// The Aggregator must stay chunk-granular: losing ConsumePartial would
// make the engine build and deliver one Event per run to every
// campaign's aggregation.
var _ campaign.PartialSink = (*campaign.Aggregator)(nil)

// structShape renders a struct type's exported surface: field names,
// types and JSON tags in declaration order.
func structShape(t reflect.Type) string {
	parts := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		s := fmt.Sprintf("%s %s", f.Name, f.Type)
		if tag, ok := f.Tag.Lookup("json"); ok {
			s += " json=" + tag
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, "; ")
}
