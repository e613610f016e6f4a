// Package service exposes the campaign job manager (internal/jobs) over
// HTTP — the dlsimd daemon's versioned /v1 API. The surface is
// deliberately small and streaming-first:
//
//	GET    /v1                    service description (version, techniques, backends, seed policies)
//	GET    /v1/techniques         DLS technique discovery
//	GET    /v1/backends           simulation backend discovery
//	POST   /v1/jobs               submit a campaign spec (JSON body)
//	GET    /v1/jobs               list jobs; pagination via ?limit= and ?after=
//	GET    /v1/jobs/{id}          one job's status; ?wait=1 blocks until terminal
//	GET    /v1/jobs/{id}/results  stream results as JSON Lines or CSV
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/health             readiness document (queue depth, drain flag, journal/auth state)
//	GET    /healthz               liveness probe
//
// Every error response is a structured JSON envelope
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// with a stable code from the campaign package's Code* set, so typed
// clients (repro/client) can branch on failures without parsing
// messages. Result streams honor content negotiation: ?format=jsonl|csv
// wins, otherwise the Accept header chooses, defaulting to JSON Lines.
//
// Results are streamed through the engine's deterministic sink
// pipeline: any number of clients fetching the same job receive
// byte-identical output, whether the campaign ran live or was replayed
// from the content-addressed store. A client disconnect cancels the
// replay through the request context. API.md at the repository root
// documents the full contract.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/campaign"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/mw"
)

// Server routes HTTP requests to a job manager.
type Server struct {
	mgr  *jobs.Manager
	exec *campaign.Execution

	healthHook atomic.Pointer[func(*campaign.Health)]
}

// New returns a server fronting the given manager.
func New(mgr *jobs.Manager) *Server { return &Server{mgr: mgr} }

// SetExecution attaches the daemon's effective execution configuration
// (CPU count, worker pool, chunk size) to the GET /v1 description.
// Informational only; call before Handler is served.
func (s *Server) SetExecution(e campaign.Execution) { s.exec = &e }

// SetHealthHook installs a function that decorates the /v1/health
// document with daemon-level state the service layer cannot see
// (journal health, auth configuration). Safe to call while serving.
func (s *Server) SetHealthHook(fn func(*campaign.Health)) { s.healthHook.Store(&fn) }

// Handler builds the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.health)
	mux.HandleFunc("GET /v1/health", s.healthV1)
	mux.HandleFunc("GET /v1", s.describe)
	mux.HandleFunc("GET /v1/{$}", s.describe)
	mux.HandleFunc("GET /v1/techniques", s.techniques)
	mux.HandleFunc("GET /v1/backends", s.backends)
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.results)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the structured envelope (campaign.ErrorEnvelope —
// the shared wire definition the client SDK decodes). details may be
// nil.
func writeError(w http.ResponseWriter, status int, code string, details map[string]any, format string, args ...any) {
	writeJSON(w, status, campaign.ErrorEnvelope{Error: campaign.ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		Details: details,
	}})
}

func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// healthV1 serves the readiness document. Liveness stays /healthz; this
// endpoint answers the richer placement question — accepting? draining?
// how loaded? — for probes and load balancers. A draining node answers
// 503 (so status-code probes flip immediately) but still carries the
// full JSON document in the body; clients decode it either way.
func (s *Server) healthV1(w http.ResponseWriter, _ *http.Request) {
	stats := s.mgr.Stats()
	h := campaign.Health{
		Ok:         true,
		Ready:      true,
		Service:    "dlsimd",
		QueueDepth: stats.Queued,
		Running:    stats.Running,
	}
	if s.mgr.Draining() {
		h.Ready = false
		h.Draining = true
	}
	if fn := s.healthHook.Load(); fn != nil && *fn != nil {
		(*fn)(&h)
	}
	code := http.StatusOK
	if !h.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) describe(w http.ResponseWriter, _ *http.Request) {
	d := campaign.LocalDescription()
	d.Service = "dlsimd"
	d.Execution = s.exec
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) techniques(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"techniques": campaign.LocalDescription().Techniques})
}

func (s *Server) backends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"backends": engine.Names()})
}

// submitResponse extends the job snapshot with the dedup verdict for
// this particular submission.
type submitResponse struct {
	jobs.Snapshot
	Deduped bool `json:"deduped"`
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// 1 MiB is far beyond any realistic grid description; an explicit
	// workload's task times fit up to about 50 000 tasks.
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var spec engine.CampaignSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, campaign.CodeInvalidArgument, nil,
			"decode campaign spec: %v", err)
		return
	}
	job, deduped, err := s.mgr.SubmitAs(tenantOf(r), spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, campaign.CodeQueueFull, nil, "%v", err)
		return
	case errors.Is(err, jobs.ErrQuotaExceeded):
		writeError(w, http.StatusForbidden, campaign.CodeQuotaExceeded, nil, "%v", err)
		return
	case errors.Is(err, jobs.ErrClosed), errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, campaign.CodeShuttingDown, nil, "%v", err)
		return
	case err != nil:
		// Submit's only other failure mode is spec validation.
		writeError(w, http.StatusBadRequest, campaign.CodeInvalidSpec, nil, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{Snapshot: job.Snapshot(), Deduped: deduped})
}

// tenantOf resolves the request's tenant as the auth middleware
// established it; "" (untagged) when the request arrived as anonymous,
// so quota bookkeeping matches direct Manager.Submit calls.
func tenantOf(r *http.Request) string {
	if t := mw.TenantFrom(r.Context()); t != mw.Anonymous {
		return t
	}
	return ""
}

// listResponse is one page of jobs. NextAfter, when set, is the cursor
// of the following page.
type listResponse struct {
	Jobs      []jobs.Snapshot `json:"jobs"`
	NextAfter string          `json:"next_after,omitempty"`
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, campaign.CodeInvalidArgument,
				map[string]any{"limit": v}, "bad limit parameter %q: want a non-negative integer", v)
			return
		}
		limit = n
	}
	after := q.Get("after")
	page, next, err := s.mgr.ListPage(after, limit)
	if err != nil {
		writeError(w, http.StatusNotFound, campaign.CodeNotFound,
			map[string]any{"after": after}, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, listResponse{Jobs: page, NextAfter: next})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, campaign.CodeNotFound,
			map[string]any{"id": id}, "%v", err)
		return
	}
	if v := r.URL.Query().Get("wait"); v != "" {
		wait, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, campaign.CodeInvalidArgument,
				map[string]any{"wait": v}, "bad wait parameter: %v", err)
			return
		}
		if wait {
			// Block (bounded by the request context) until terminal; a
			// client disconnect just abandons the wait.
			snap, err := s.mgr.Wait(r.Context(), id)
			if err != nil {
				writeError(w, http.StatusServiceUnavailable, campaign.CodeShuttingDown, nil, "%v", err)
				return
			}
			writeJSON(w, http.StatusOK, snap)
			return
		}
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, campaign.CodeNotFound,
			map[string]any{"id": id}, "%v", err)
		return
	}
	job, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, campaign.CodeNotFound,
			map[string]any{"id": id}, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// negotiateFormat picks the result encoding: an explicit ?format= wins,
// then the Accept header (media ranges with q-values; highest quality
// wins, JSON Lines on ties or no preference), then JSON Lines. A
// non-zero errStatus reports a failed negotiation: 400 for an
// unsupported explicit format, 406 when the Accept header mentions the
// encodings this route serves but assigns every one q=0.
func negotiateFormat(r *http.Request) (format string, errStatus int) {
	switch format := r.URL.Query().Get("format"); format {
	case "jsonl", "csv":
		return format, 0
	case "":
	default:
		return "", http.StatusBadRequest
	}
	// Accumulate the best quality offered for each encoding we serve
	// (-1 = not mentioned). application/jsonl and application/x-ndjson
	// are the JSONL types; */* and absent or unrecognized headers
	// default to JSONL — lenient, since many clients send Accept values
	// they do not mean strictly.
	qJSONL, qCSV := -1.0, -1.0
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		fields := strings.Split(part, ";")
		mediaType := strings.ToLower(strings.TrimSpace(fields[0]))
		q := 1.0
		for _, p := range fields[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok {
				if parsed, err := strconv.ParseFloat(v, 64); err == nil {
					q = parsed
				}
			}
		}
		switch mediaType {
		case "text/csv":
			qCSV = max(qCSV, q)
		case "application/jsonl", "application/x-ndjson", "application/json":
			qJSONL = max(qJSONL, q)
		case "text/*":
			qCSV = max(qCSV, q)
		case "application/*", "*/*":
			qJSONL = max(qJSONL, q)
		}
	}
	switch {
	case qCSV > 0 && qCSV > qJSONL:
		return "csv", 0
	case qJSONL > 0 || (qJSONL < 0 && qCSV < 0):
		return "jsonl", 0
	default:
		// Our encodings were mentioned and every one was refused (q=0).
		return "", http.StatusNotAcceptable
	}
}

// results streams the job's per-run metrics. Query parameters:
//
//	format=jsonl|csv  output encoding (default: content negotiation on
//	                  the Accept header, falling back to jsonl)
//	wait=0            fail with 409 job_not_done instead of waiting
//
// By default the handler waits for the job to finish (bounded by the
// request context), then streams the deterministic event sequence; a
// failed or cancelled job yields 409 with code job_failed or
// job_cancelled.
func (s *Server) results(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, campaign.CodeNotFound,
			map[string]any{"id": id}, "%v", err)
		return
	}
	wait := true
	if v := r.URL.Query().Get("wait"); v != "" {
		wait, err = strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, campaign.CodeInvalidArgument,
				map[string]any{"wait": v}, "bad wait parameter: %v", err)
			return
		}
	}
	format, errStatus := negotiateFormat(r)
	switch errStatus {
	case 0:
	case http.StatusNotAcceptable:
		writeError(w, errStatus, campaign.CodeNotAcceptable,
			map[string]any{"accept": r.Header.Get("Accept")},
			"no acceptable encoding: this route serves jsonl and csv")
		return
	default:
		writeError(w, errStatus, campaign.CodeInvalidArgument,
			map[string]any{"format": r.URL.Query().Get("format")},
			"unknown format %q (want jsonl or csv)", r.URL.Query().Get("format"))
		return
	}
	snap := job.Snapshot()
	if !snap.State.Terminal() {
		if !wait {
			writeError(w, http.StatusConflict, campaign.CodeNotDone,
				map[string]any{"id": id, "state": snap.State}, "job %s is %s", id, snap.State)
			return
		}
		if snap, err = s.mgr.Wait(r.Context(), id); err != nil {
			// Client went away (or shutdown); nothing sensible to write.
			writeError(w, http.StatusServiceUnavailable, campaign.CodeShuttingDown, nil, "%v", err)
			return
		}
	}
	if snap.State != jobs.StateDone {
		code := campaign.CodeJobFailed
		if snap.State == jobs.StateCancelled {
			code = campaign.CodeJobCancelled
		}
		writeError(w, http.StatusConflict, code,
			map[string]any{"id": id, "state": snap.State, "job_error": snap.Error},
			"job %s is %s: %s", id, snap.State, snap.Error)
		return
	}

	var sink engine.Sink
	switch format {
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		sink = engine.NewJSONLSink(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		sink = engine.NewCSVSink(w)
	}
	w.Header().Set("X-Campaign-Hash", snap.Hash)
	w.WriteHeader(http.StatusOK)
	// Errors past this point cannot change the status code; a client
	// disconnect cancels the replay via the request context and simply
	// truncates the stream.
	_ = s.mgr.Results(r.Context(), id, sink)
}
