package campaign

// Health is the readiness document one execution surface serves at
// GET /v1/health. It answers the operational question a load balancer
// or an operator asks before placing work: is this node alive, is it
// accepting, and how loaded is it. The fleet coordinator does not read
// it; a draining node's refusal of new submissions routes shards away
// on its own.
//
// Liveness and readiness are distinct: /healthz answers "is the
// process up" and stays 200 for the daemon's whole life, while
// /v1/health reports Ready=false (and HTTP 503) the moment the node
// starts draining — running jobs still finish and their results remain
// streamable, but new submissions are refused with shutting_down.
type Health struct {
	// Ok is the liveness bit: the process is up and serving. Always
	// true in a served document; it exists so a decoded zero value is
	// distinguishable from a real answer.
	Ok bool `json:"ok"`
	// Ready reports whether the node accepts new submissions. False
	// while draining.
	Ready bool `json:"ready"`
	// Draining is set once shutdown has begun: the queue refuses new
	// work while running jobs finish.
	Draining bool `json:"draining,omitempty"`
	// QueueDepth is the number of jobs waiting to run.
	QueueDepth int `json:"queue_depth"`
	// Running is the number of jobs currently executing.
	Running int `json:"running"`
	// Journal reports the durable journal's state: "" (disabled),
	// "ok", or "degraded" (an append failed since startup — durability
	// is reduced, availability is not).
	Journal string `json:"journal,omitempty"`
	// Auth reports whether multi-tenant API-key auth is enabled.
	Auth bool `json:"auth"`
	// Service identifies the implementation serving the document.
	Service string `json:"service,omitempty"`
}
