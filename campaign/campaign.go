package campaign

import (
	"errors"
	"io"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The campaign vocabulary is defined in the engine and promoted here by
// alias, so the public surface, the in-process execution layer and the
// dlsimd service all speak the very same types — a spec built against
// this package is byte-for-byte the document the /v1 API accepts.
type (
	// Spec is the declarative description of a whole campaign: the
	// (technique × n × p) grid, the workload, per-run parameters, the
	// replication count and the seed policy. See engine.CampaignSpec for
	// field semantics; Validate, Canonical, Hash, Points and
	// NewAggregator are available as methods.
	Spec = engine.CampaignSpec

	// Workload declares the per-task execution-time distribution.
	Workload = workload.Spec

	// Event is one completed run flowing through the results pipeline,
	// delivered to Sinks in deterministic (point, replication) order.
	Event = engine.Event

	// RunMetrics are the per-run scalars every campaign reports.
	RunMetrics = engine.RunMetrics

	// Sink consumes the ordered stream of run events; see PartialSink
	// for chunk-granular delivery.
	Sink = engine.Sink

	// MetricsPartial is one chunk's worth of per-run metrics, delivered
	// to PartialSinks in deterministic (point, replication) order.
	MetricsPartial = engine.MetricsPartial

	// PartialSink marks a Sink as chunk-granular: it receives one
	// MetricsPartial per chunk and no per-run Events, while the plain
	// Sinks of the same campaign receive Events — same values, same
	// order. The choice is made per sink.
	PartialSink = engine.PartialSink

	// Aggregate summarizes all replications of one campaign point.
	Aggregate = engine.Aggregate

	// Result holds one Aggregate per campaign point plus the overall
	// streaming roll-up.
	Result = engine.CampaignResult

	// Aggregator folds an event stream into a Result, bit-identically to
	// server-side aggregation. Obtain one from Spec.NewAggregator.
	Aggregator = engine.Aggregator

	// State is a job's lifecycle phase; Terminal reports whether it can
	// still change.
	State = jobs.State

	// Snapshot is a point-in-time copy of a job's externally visible
	// state — the JSON document the /v1 status endpoints serve.
	Snapshot = jobs.Snapshot

	// Store is the content-addressed result store consulted before
	// simulating and filled after; equal spec hashes imply bit-identical
	// results, so hits are served with zero simulator runs.
	Store = cache.Store
)

// Job lifecycle states.
const (
	StateQueued    = jobs.StateQueued
	StateRunning   = jobs.StateRunning
	StateDone      = jobs.StateDone
	StateFailed    = jobs.StateFailed
	StateCancelled = jobs.StateCancelled
)

// Seed policies: pure derivations from (Seed, point, replication) to
// each run's rand48 state. See the engine constants for the exact
// derivations.
const (
	SeedPerCell = engine.SeedPerCell // decorrelated per grid cell (default)
	SeedFlat    = engine.SeedFlat    // run r uses rng.RunSeed(Seed, r) everywhere
	SeedFacade  = engine.SeedFacade  // the facade's MeanWastedTime derivation
	SeedShared  = engine.SeedShared  // every run shares one state (Compare)
)

// Errors shared by all runners. The local runner returns them directly;
// the HTTP client maps the service's stable error codes back onto them,
// so errors.Is works identically against either implementation.
var (
	// ErrQueueFull rejects a submission when the runner's bounded queue
	// is at capacity — the backpressure signal.
	ErrQueueFull = jobs.ErrQueueFull
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = jobs.ErrNotFound
	// ErrClosed rejects submissions after the runner has shut down.
	ErrClosed = jobs.ErrClosed
	// ErrQuotaExceeded rejects a submission when the caller's tenant is
	// at its per-tenant job quota. Distinct from ErrQueueFull: the queue
	// may have room, just not for this tenant.
	ErrQuotaExceeded = jobs.ErrQuotaExceeded
	// ErrUnauthorized reports a missing or invalid API key on a service
	// with authentication enabled. HTTP-only: the local runner has no
	// auth surface.
	ErrUnauthorized = errors.New("campaign: unauthorized")
	// ErrRateLimited reports a request rejected by the service's
	// per-tenant rate limiter. Retry after backing off; the HTTP client
	// honors the Retry-After header automatically.
	ErrRateLimited = errors.New("campaign: rate limited")
)

// APIVersion names the HTTP contract revision all of this package's
// wire types belong to.
const APIVersion = "v1"

// Stable error codes of the /v1 API's error envelope
// {"error": {"code", "message", "details"}}. Codes are part of the
// versioned contract: clients may switch on them, and they never change
// meaning within APIVersion.
const (
	CodeInvalidArgument = "invalid_argument" // malformed body, query or path parameter
	CodeInvalidSpec     = "invalid_spec"     // spec decoded but failed validation
	CodeNotFound        = "not_found"        // unknown job ID or pagination cursor
	CodeQueueFull       = "queue_full"       // submission queue at capacity (retry later)
	CodeShuttingDown    = "shutting_down"    // service is draining; no new work
	CodeNotDone         = "job_not_done"     // results requested with wait=0 before completion
	CodeJobFailed       = "job_failed"       // results of a failed job
	CodeJobCancelled    = "job_cancelled"    // results of a cancelled job
	CodeNotAcceptable   = "not_acceptable"   // Accept header refuses every encoding the route serves
	CodeInternal        = "internal"         // unexpected server-side failure
	CodeUnauthorized    = "unauthorized"     // missing or invalid API key (auth enabled)
	CodeRateLimited     = "rate_limited"     // per-tenant rate limit hit (honor Retry-After)
	CodeQuotaExceeded   = "quota_exceeded"   // per-tenant queued-job quota hit
)

// ErrorBody is the inner object of the /v1 error envelope — the one
// wire definition the service emits and the client SDK decodes.
type ErrorBody struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// ErrorEnvelope is the JSON document every non-2xx /v1 response
// carries: {"error": {"code", "message", "details"}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ParseSpec decodes a JSON campaign spec, rejecting unknown fields, and
// validates it.
func ParseSpec(data []byte) (Spec, error) { return engine.ParseSpec(data) }

// DecodeEvent parses one line of a JSONL result stream back into an
// Event, bit-exactly (the stream encodes floats in shortest round-trip
// form). It accepts and rejects exactly the lines encoding/json
// accepts and rejects for the row schema, with the same values: keys
// in any order, unknown fields ignored. The reconstructed Spec carries
// the row's identifying coordinates only (Technique, N, P).
func DecodeEvent(line []byte) (Event, error) { return engine.DecodeJSONLEvent(line) }

// NewCSVSink returns a sink streaming one CSV row per run to w.
func NewCSVSink(w io.Writer) Sink { return engine.NewCSVSink(w) }

// NewJSONLSink returns a sink streaming one JSON object per run to w —
// the encoding DecodeEvent reverses, byte for byte what encoding/json
// writes for the row. Rows are buffered until Close.
func NewJSONLSink(w io.Writer) Sink { return engine.NewJSONLSink(w) }

// NewMemoryStore returns an in-process result store.
func NewMemoryStore() Store { return cache.NewMemory() }

// NewDiskStore returns an on-disk result store rooted at dir (created
// if needed), with atomic writes.
func NewDiskStore(dir string) (Store, error) { return cache.NewDisk(dir) }

// Description reports an execution surface's capabilities — what the
// Describe method of every Runner returns and the GET /v1 discovery
// endpoint serves.
type Description struct {
	// Service identifies the implementation ("local", "dlsimd").
	Service string `json:"service"`
	// APIVersion is the contract revision ("v1").
	APIVersion string `json:"api_version"`
	// Techniques lists the DLS technique names accepted in Spec.Techniques.
	Techniques []string `json:"techniques"`
	// Backends lists the registered simulation backends.
	Backends []string `json:"backends"`
	// SeedPolicies lists the accepted Spec.SeedPolicy values.
	SeedPolicies []string `json:"seed_policies"`
	// Execution reports the surface's effective execution configuration
	// (CPU count, worker pool, chunk size). Informational only — it never
	// affects results — and omitted by surfaces that predate it.
	Execution *Execution `json:"execution,omitempty"`
}

// Execution describes how a surface schedules campaign runs onto
// hardware. Every field is scheduling-only: results are bit-identical
// for any combination of values.
type Execution struct {
	// CPUs is runtime.NumCPU() where campaigns execute.
	CPUs int `json:"cpus"`
	// Workers is the effective per-campaign worker-goroutine count.
	Workers int `json:"workers"`
	// Concurrency is the number of campaigns executing at once.
	Concurrency int `json:"concurrency"`
}

// LocalDescription describes what this build executes: every
// registered technique, backend and seed policy. The dlsimd service
// serves the same document (with its own Service name) from GET /v1.
func LocalDescription() Description {
	return Description{
		Service:      "local",
		APIVersion:   APIVersion,
		Techniques:   sched.Names(),
		Backends:     engine.Names(),
		SeedPolicies: []string{SeedPerCell, SeedFlat, SeedFacade, SeedShared},
	}
}
