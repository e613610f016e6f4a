// Production wiring for the daemon: environment-overridable settings,
// the durable job journal, lifecycle observers, the metrics registry,
// and journal-backed recovery of jobs. main.go owns flag parsing and
// the HTTP plumbing; this file owns the glue between the hardening
// subsystems (internal/journal, internal/mw, internal/telemetry) and
// the job manager.
package main

import (
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// env reads a flag's default from the environment variable name, so
// deployments can configure the daemon without editing unit files; the
// flag still wins. Every type follows one rule: an unset or empty
// variable means fallback, and a value that parse rejects is logged and
// falls back too.
func env[T any](name string, fallback T, parse func(string) (T, error)) T {
	v := os.Getenv(name)
	if v == "" {
		return fallback
	}
	x, err := parse(v)
	if err != nil {
		log.Printf("ignoring %s=%q: %v", name, v, err)
		return fallback
	}
	return x
}

// parseString and parseFloat adapt a string and strconv.ParseFloat to
// env's parse signature.
func parseString(s string) (string, error) { return s, nil }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// daemonMetrics owns the telemetry registry and the series fed by the
// HTTP middleware and the job lifecycle observer. The jobs-by-state and
// cache gauges are sampled at scrape time via bind, so creation can
// precede the manager they report on.
type daemonMetrics struct {
	reg *telemetry.Registry

	httpRequests  *telemetry.CounterVec   // route, status
	httpLatency   *telemetry.HistogramVec // route
	jobDuration   *telemetry.Histogram
	authRejected  *telemetry.Counter
	rateLimited   *telemetry.Counter
	quotaDenied   *telemetry.Counter
	journalErrors *telemetry.Counter
}

func newDaemonMetrics() *daemonMetrics {
	reg := telemetry.NewRegistry()
	return &daemonMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("dlsimd_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "status"),
		httpLatency: reg.HistogramVec("dlsimd_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.",
			telemetry.DefDurationBuckets, "route"),
		jobDuration: reg.Histogram("dlsimd_job_duration_seconds",
			"Wall-clock duration of jobs reaching a terminal state.",
			telemetry.DefDurationBuckets),
		authRejected: reg.Counter("dlsimd_auth_rejections_total",
			"Requests rejected for a missing or unknown API key."),
		rateLimited: reg.Counter("dlsimd_rate_limited_total",
			"Requests rejected by the per-tenant rate limiter."),
		quotaDenied: reg.Counter("dlsimd_quota_rejections_total",
			"Submissions rejected by a per-tenant quota."),
		journalErrors: reg.Counter("dlsimd_journal_errors_total",
			"Journal append or sync failures; non-zero means degraded durability."),
	}
}

// bind registers the scrape-time gauges that sample live daemon state.
func (m *daemonMetrics) bind(mgr *jobs.Manager, counted *cache.Counting) {
	m.reg.GaugeSetFunc("dlsimd_jobs", "Jobs known to the manager, by state.",
		[]string{"state"}, func() []telemetry.Sample {
			s := mgr.Stats()
			return []telemetry.Sample{
				{Values: []string{"cancelled"}, V: float64(s.Cancelled)},
				{Values: []string{"done"}, V: float64(s.Done)},
				{Values: []string{"failed"}, V: float64(s.Failed)},
				{Values: []string{"queued"}, V: float64(s.Queued)},
				{Values: []string{"running"}, V: float64(s.Running)},
			}
		})
	m.reg.GaugeFunc("dlsimd_queue_depth", "Jobs waiting to run.",
		func() float64 { return float64(mgr.Stats().Queued) })
	m.reg.GaugeFunc("dlsimd_runs_delivered", "Simulation runs delivered to job progress, including cached replays.",
		func() float64 { return float64(mgr.Stats().RunsDelivered) })
	m.reg.GaugeSetFunc("dlsimd_cache_ops", "Result store operations since start, by kind.",
		[]string{"kind"}, func() []telemetry.Sample {
			hits, misses, puts := counted.Stats()
			return []telemetry.Sample{
				{Values: []string{"hit"}, V: float64(hits)},
				{Values: []string{"miss"}, V: float64(misses)},
				{Values: []string{"put"}, V: float64(puts)},
			}
		})
}

// observe is the mw.Instrument callback. Every quota rejection is a
// 403 and nothing else on the API surface produces one, so the status
// doubles as the quota counter's trigger.
func (m *daemonMetrics) observe(route string, status int, elapsed time.Duration) {
	m.httpRequests.With(route, strconv.Itoa(status)).Inc()
	m.httpLatency.With(route).Observe(elapsed.Seconds())
	if status == http.StatusForbidden {
		m.quotaDenied.Inc()
	}
}

// daemonMetrics is a jobs.Observer: terminal transitions feed the job
// duration histogram.
func (m *daemonMetrics) JobSubmitted(engine.CampaignSpec, jobs.Snapshot) {}

func (m *daemonMetrics) JobTransition(snap jobs.Snapshot) {
	if snap.State.Terminal() && snap.StartedAt != nil && snap.FinishedAt != nil {
		m.jobDuration.Observe(snap.FinishedAt.Sub(*snap.StartedAt).Seconds())
	}
}

// journalObserver journals job lifecycle events. An append failure —
// including a failed fsync, which internal/journal surfaces rather
// than swallows — never blocks the job path (a sick disk degrades
// durability, not availability), but it is not dropped silently
// either: every failure is logged and reported through onErr, which
// the daemon wires to the journal-error counter and the /v1/health
// "degraded" journal state.
type journalObserver struct {
	jn    *journal.Journal
	onErr func(error)
}

func (o journalObserver) JobSubmitted(spec engine.CampaignSpec, snap jobs.Snapshot) {
	o.append(journal.Record{
		Kind: journal.KindJob, Time: snap.CreatedAt, ID: snap.ID,
		Tenant: snap.Tenant, Hash: snap.Hash, Spec: &spec,
	})
}

func (o journalObserver) JobTransition(snap jobs.Snapshot) {
	rec := journal.Record{
		Kind: journal.KindState, Time: time.Now(), ID: snap.ID,
		State: string(snap.State), Error: snap.Error,
	}
	switch {
	case snap.State == jobs.StateRunning && snap.StartedAt != nil:
		rec.Time = *snap.StartedAt
	case snap.State.Terminal() && snap.FinishedAt != nil:
		rec.Time = *snap.FinishedAt
	}
	o.append(rec)
}

func (o journalObserver) append(rec journal.Record) {
	if err := o.jn.Append(rec); err != nil {
		log.Printf("journal: %v", err)
		if o.onErr != nil {
			o.onErr(err)
		}
	}
}

// restoreFromJournal replays a recovered record sequence: terminal jobs
// come back as browsable snapshots (results re-materialize from the
// content-addressed store on demand), and jobs that were queued or
// running at crash time are re-enqueued (zero backend runs when their
// spec is cached).
func restoreFromJournal(recs []journal.Record, mgr *jobs.Manager) {
	terminal, requeued := 0, 0
	for _, v := range journal.Fold(recs) {
		snap := jobs.Snapshot{
			ID: v.ID, Tenant: v.Tenant, Hash: v.Hash,
			State: jobs.State(v.State), Error: v.Error, CreatedAt: v.Created,
		}
		if !v.Started.IsZero() {
			t := v.Started
			snap.StartedAt = &t
		}
		if !v.Finished.IsZero() {
			t := v.Finished
			snap.FinishedAt = &t
		}
		if _, err := mgr.Restore(v.Spec, snap); err != nil {
			log.Printf("journal: skipping job %s: %v", v.ID, err)
			continue
		}
		if v.Terminal() {
			terminal++
		} else {
			requeued++
		}
	}
	log.Printf("journal: recovered %d terminal jobs, re-enqueued %d", terminal, requeued)
}
