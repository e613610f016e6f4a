// Package client is the typed Go SDK for the dlsimd campaign service's
// /v1 HTTP API. A Client implements campaign.Executor, so code that runs
// campaigns through campaign.Run executes them on a remote daemon
// exactly as it would in-process — same specs, same deterministic
// per-run event streams, bit-identical aggregates:
//
//	c, err := client.New("http://localhost:8080")
//	if err != nil { ... }
//	res, err := campaign.Run(ctx, c, spec) // identical to a LocalRunner run
//
// Execute submits the spec, then folds the streamed events through an
// Aggregator client-side. A Client is also the one implementation of
// campaign.Runner, the node job API (Submit, Wait, Stream, Cancel,
// Describe) a fleet coordinator places shards through. Beyond both, the client exposes
// the full v1 surface: job status and paginated listing (Job, Jobs),
// raw result streams in either encoding (Results), discovery
// (Techniques, Backends), the liveness probe (Live) and the readiness
// document (Health).
//
// Three options configure a client. WithDoer is the one transport
// seam: pass an *http.Client carrying a timeout, TLS configuration or a
// tuned Transport, or any wrapper around one. WithOptions installs the
// retry policy (DefaultRetry suits coordinators). WithAPIKey sets the
// bearer credential. Per-call deadlines come from the caller's context.
//
// Failures carry the service's structured error envelope as an
// *APIError with the stable machine-readable code, and map onto the
// campaign package's sentinel errors (ErrQueueFull, ErrNotFound,
// ErrClosed) via errors.Is — the same sentinels the daemon's job queue
// returns in process. API.md at the repository root documents
// every route, error code and pagination parameter.
package client
