// Package chaos injects faults into the dlsimd HTTP surface — the
// harness that turns the fleet's failure handling from dead code into
// tested behavior. Injector makes every fault: connection resets,
// added latency, 5xx error envelopes, truncated or corrupted result
// streams, and blackholes. It runs in-process below the client SDK's
// retry policy (client.WithDoer), and over TCP as the transport of
// NewProxy, the reverse proxy cmd/chaosproxy puts in front of a real
// daemon.
//
// Engine decides which requests to damage: a deterministic, seedable
// rule engine. Each rule matches requests by method and path substring
// and fires either on the first N matches ("fail first N", exactly
// reproducible) or with a fixed probability drawn from a seeded
// SplitMix64 stream. Given the same seed and the same sequence of
// matching requests, the engine makes the same decisions — a chaos
// profile is a reproducible experiment, which is the whole point in a
// repository about reproducibility under perturbation.
//
// Determinism caveat: the probability stream is consumed in request
// arrival order, so concurrent clients racing each other can permute
// which request draws which number. The injected fault *set* stays
// seed-stable in distribution; tests needing exact placement use
// FirstN rules or serialized traffic. Simulation results are unaffected
// either way — faults only ever perturb scheduling, and the campaign
// layer's retries and integrity checks are what is under test.
package chaos

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Fault names one injectable failure mode.
type Fault string

// The fault vocabulary. Reset and Blackhole exercise transport-level
// failures, Error5xx the structured error path, Truncate and Corrupt
// the result-stream integrity checks, Latency the straggler handling
// (hedging).
const (
	// FaultReset severs the connection before a response is written —
	// the client sees a connection reset / unexpected EOF.
	FaultReset Fault = "reset"
	// FaultLatency delays the request by Latency, then proceeds
	// normally. The only fault that composes with a real response.
	FaultLatency Fault = "latency"
	// FaultError5xx answers 503 with a well-formed error envelope
	// (code "internal") without reaching the backend.
	FaultError5xx Fault = "error"
	// FaultTruncate forwards the real response but cuts the body after
	// After bytes, simulating a node dying mid-stream.
	FaultTruncate Fault = "truncate"
	// FaultCorrupt forwards the real response but overwrites the byte
	// at offset After with 0x00 — invalid anywhere in JSON, so decoders
	// detect the damage instead of silently accepting changed values.
	FaultCorrupt Fault = "corrupt"
	// FaultBlackhole holds the request open without answering until
	// the client gives up (context cancellation or timeout).
	FaultBlackhole Fault = "blackhole"
)

// Duration is a time.Duration that marshals as a "150ms"-style string
// and unmarshals from strings or numeric seconds — the JSON form used
// in chaos profile files.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "150ms"-style strings and numeric seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return err
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Rule is one fault-injection rule. A request matches when its method
// equals Method (empty matches all) and its URL path contains Path
// (empty matches all). A matching request is injected when fewer than
// FirstN matches have been seen so far, or else with probability P.
type Rule struct {
	// Name labels the rule in counters and logs; defaults to the fault
	// name.
	Name string `json:"name,omitempty"`
	// Method restricts the rule to one HTTP method ("" = any).
	Method string `json:"method,omitempty"`
	// Path is a substring the URL path must contain ("" = any).
	Path string `json:"path,omitempty"`
	// Fault is the failure mode to inject.
	Fault Fault `json:"fault"`
	// P is the per-request injection probability in [0, 1], applied
	// after FirstN is exhausted.
	P float64 `json:"p,omitempty"`
	// FirstN injects deterministically on the first N matching
	// requests.
	FirstN int `json:"first_n,omitempty"`
	// Latency is the added delay for FaultLatency.
	Latency Duration `json:"latency,omitempty"`
	// After is the number of body bytes forwarded before FaultTruncate
	// cuts or FaultCorrupt damages the stream. 0 means 256.
	After int64 `json:"after,omitempty"`
}

func (r Rule) label() string {
	if r.Name != "" {
		return r.Name
	}
	return string(r.Fault)
}

// Validate rejects malformed rules before they arm an engine.
func (r Rule) Validate() error {
	switch r.Fault {
	case FaultReset, FaultLatency, FaultError5xx, FaultTruncate, FaultCorrupt, FaultBlackhole:
	default:
		return fmt.Errorf("chaos: unknown fault %q", r.Fault)
	}
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("chaos: rule %s: probability %v outside [0, 1]", r.label(), r.P)
	}
	if r.P == 0 && r.FirstN <= 0 {
		return fmt.Errorf("chaos: rule %s: needs p > 0 or first_n > 0 to ever fire", r.label())
	}
	if r.Fault == FaultLatency && r.Latency <= 0 {
		return fmt.Errorf("chaos: rule %s: latency fault needs a positive latency", r.label())
	}
	if r.After < 0 {
		return fmt.Errorf("chaos: rule %s: negative after", r.label())
	}
	return nil
}

// ruleState is a rule plus its per-engine counters.
type ruleState struct {
	Rule
	seen     int64 // matching requests observed
	injected int64 // faults actually fired
}

// Engine decides, per request, which fault (if any) to inject. Safe
// for concurrent use; decisions serialize on an internal mutex so the
// seeded probability stream is consumed one draw per matching request.
type Engine struct {
	// OnInject, when non-nil, observes every fired fault — the hook
	// cmd/chaosproxy uses to log injections. Called under the engine
	// lock; keep it fast.
	OnInject func(rule string, fault Fault, method, path string)

	mu    sync.Mutex
	sm    *rng.SplitMix64
	rules []*ruleState
}

// NewEngine arms the given rules over a seeded decision stream. Invalid
// rules are rejected.
func NewEngine(seed uint64, rules ...Rule) (*Engine, error) {
	e := &Engine{sm: rng.NewSplitMix64(rng.Mix64(seed ^ 0xC5A05))}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if r.After == 0 {
			r.After = 256
		}
		e.rules = append(e.rules, &ruleState{Rule: r})
	}
	return e, nil
}

// Decide returns the rule to inject for one request, or ok=false to
// pass it through untouched. At most one rule fires per request: the
// first armed rule (in registration order) that matches and draws an
// injection wins.
func (e *Engine) Decide(method, path string) (Rule, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range e.rules {
		if rs.Method != "" && rs.Method != method {
			continue
		}
		if rs.Path != "" && !strings.Contains(path, rs.Path) {
			continue
		}
		rs.seen++
		fire := rs.seen <= int64(rs.FirstN)
		if !fire && rs.P > 0 {
			// 53 uniform bits → [0, 1), the float64 idiom.
			u := float64(e.sm.Next()>>11) / (1 << 53)
			fire = u < rs.P
		}
		if fire {
			rs.injected++
			if e.OnInject != nil {
				e.OnInject(rs.label(), rs.Fault, method, path)
			}
			return rs.Rule, true
		}
	}
	return Rule{}, false
}

// Counts reports per-rule injection counts keyed by rule label — the
// assertion surface for tests ("the profile actually fired").
func (e *Engine) Counts() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int64, len(e.rules))
	for _, rs := range e.rules {
		out[rs.label()] += rs.injected
	}
	return out
}

// Injected reports the total number of faults fired across all rules.
func (e *Engine) Injected() int64 {
	var n int64
	for _, v := range e.Counts() {
		n += v
	}
	return n
}

// ParseRules decodes a JSON array of rules — the chaos profile file
// format cmd/chaosproxy loads.
func ParseRules(data []byte) ([]Rule, error) {
	var rules []Rule
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rules); err != nil {
		return nil, fmt.Errorf("chaos: parse rules: %w", err)
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}
