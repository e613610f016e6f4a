package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CampaignSpec is the declarative description of a whole campaign: the
// (technique × n × p) grid, the workload, the per-run parameters, the
// replication count and the seed policy — the shape of every experiment
// in the paper (1000 replications per grid cell, §IV). A CampaignSpec
// is plain data: it serializes to JSON, round-trips losslessly, and has
// a canonical hash. Equal hashes imply bit-identical results (campaign
// execution is deterministic in the spec), which is what makes results
// content-addressable in internal/cache.
//
// Execution parameters that cannot change results (worker count, cache,
// sinks) are deliberately not part of the spec; they live in ExecConfig.
type CampaignSpec struct {
	// Backend names the registered simulation backend; "" selects
	// DefaultBackend.
	Backend string `json:"backend,omitempty"`

	// Techniques, Ns and Ps span the grid. Points expand in n-major,
	// then p, then technique order — the order the paper's tables use.
	Techniques []string `json:"techniques"`
	Ns         []int64  `json:"ns"`
	Ps         []int    `json:"ps"`

	// Workload describes the per-task execution times. A zero N is
	// substituted with each grid point's task count; a nonzero N fixes
	// the workload's shape independent of the grid (e.g. a ramp rising
	// over exactly N tasks) and participates in the spec hash. Kind
	// explicit carries the recorded time of every task in Times, which
	// must cover the task count the workload is built for.
	Workload workload.Spec `json:"workload"`

	H              float64 `json:"h,omitempty"`
	HInDynamics    bool    `json:"h_in_dynamics,omitempty"`
	PerMessageCost float64 `json:"per_message_cost,omitempty"`

	Speeds     []float64 `json:"speeds,omitempty"`
	StartTimes []float64 `json:"start_times,omitempty"`

	MinChunk int64     `json:"min_chunk,omitempty"`
	Chunk    int64     `json:"chunk,omitempty"`
	First    int64     `json:"first,omitempty"`
	Last     int64     `json:"last,omitempty"`
	Alpha    float64   `json:"alpha,omitempty"`
	Weights  []float64 `json:"weights,omitempty"`

	// Replications is the number of independent runs per grid point
	// (paper: 1000).
	Replications int `json:"replications"`

	// Seed is the campaign's base seed; SeedPolicy chooses how per-run
	// rand48 states derive from it.
	Seed       uint64 `json:"seed"`
	SeedPolicy string `json:"seed_policy,omitempty"`

	// RepOffset shifts the replication axis of the seed derivation: run r
	// of this spec draws the rand48 state that replication RepOffset+r of
	// a spec with RepOffset 0 would draw. It exists for sharding — a
	// sub-spec covering the replication window [RepOffset,
	// RepOffset+Replications) of a parent grid executes exactly the runs
	// the parent executes over that window, so a distributed coordinator
	// can split a campaign across nodes and merge the results
	// bit-identically (campaign/distrib). Everything else — event
	// indices, stream order, aggregation — stays local to this spec;
	// only the seeds shift. 0 (the default) leaves derivations untouched
	// and, being omitted from the canonical encoding, does not alter the
	// hash of existing specs.
	RepOffset int `json:"rep_offset,omitempty"`
}

// Seed policies. Each names a pure derivation from (Seed, point, rep) to
// the run's rand48 state, matching the derivations the layers above the
// engine have always used.
const (
	// SeedPerCell decorrelates every grid cell: the cell's base seed is
	// rng.CellSeed(Seed, technique, n, p) and run r draws
	// rng.RunSeed(base, r). The experiment grids use this (default).
	SeedPerCell = "cell"
	// SeedFlat derives run r's state as rng.RunSeed(Seed, r) for every
	// point — the dlsim CLI derivation.
	SeedFlat = "flat"
	// SeedFacade derives run r's state as rng.Mix64(rng.RunSeed(Seed, r))
	// — the facade's MeanWastedTime derivation, equal to a serial loop of
	// single simulations seeded rng.RunSeed(Seed, r).
	SeedFacade = "facade"
	// SeedShared gives every run of every point the identical state
	// rng.Mix64(Seed) — the facade's Compare derivation, isolating
	// technique effects from sampling noise.
	SeedShared = "shared"
)

// specHashDomain versions the canonical encoding; bump it whenever the
// encoding or the execution semantics change incompatibly, so stale
// cache entries can never be mistaken for current results.
const specHashDomain = "dlsim-campaign-v1\n"

// Normalize returns the spec with defaults made explicit (backend, seed
// policy). Specs that normalize equal are the same campaign and hash
// equal.
func (s CampaignSpec) Normalize() CampaignSpec {
	if s.Backend == "" {
		s.Backend = DefaultBackend
	}
	if s.SeedPolicy == "" {
		s.SeedPolicy = SeedPerCell
	}
	return s
}

// Validate checks the spec for executability without running anything.
func (s CampaignSpec) Validate() error {
	if len(s.Techniques) == 0 || len(s.Ns) == 0 || len(s.Ps) == 0 {
		return fmt.Errorf("engine: campaign spec: empty technique/n/p lists")
	}
	// A duplicate technique would silently collapse into one key in every
	// by-technique view of the results (Compare's map, result tables), so
	// it is almost certainly a caller mistake; reject it loudly.
	seen := make(map[string]struct{}, len(s.Techniques))
	for _, tech := range s.Techniques {
		if _, dup := seen[tech]; dup {
			return fmt.Errorf("engine: campaign spec: duplicate technique %q (each technique may appear once)", tech)
		}
		seen[tech] = struct{}{}
	}
	if s.Replications <= 0 {
		return fmt.Errorf("engine: campaign spec: replications must be positive, got %d", s.Replications)
	}
	if s.RepOffset < 0 {
		return fmt.Errorf("engine: campaign spec: rep offset must be non-negative, got %d", s.RepOffset)
	}
	switch s.Normalize().SeedPolicy {
	case SeedPerCell, SeedFlat, SeedFacade, SeedShared:
	default:
		return fmt.Errorf("engine: campaign spec: unknown seed policy %q", s.SeedPolicy)
	}
	if _, err := New(s.Backend); err != nil {
		return err
	}
	for _, n := range s.Ns {
		if n <= 0 {
			return fmt.Errorf("engine: campaign spec: n must be positive, got %d", n)
		}
	}
	for _, p := range s.Ps {
		if p <= 0 {
			return fmt.Errorf("engine: campaign spec: p must be positive, got %d", p)
		}
		if err := sim.CheckPEVectors(s.Speeds, s.StartTimes, p); err != nil {
			return fmt.Errorf("engine: campaign spec: %w", err)
		}
	}
	for _, tech := range s.Techniques {
		// Probe with the grid's first cell; per-cell parameter errors
		// surface from the backend at run time.
		probe := sched.Params{N: s.Ns[0], P: s.Ps[0], H: s.H, Mu: 1, Sigma: 1,
			MinChunk: s.MinChunk, Chunk: s.Chunk, First: s.First, Last: s.Last,
			Alpha: s.Alpha, Weights: s.Weights}
		if _, err := sched.New(tech, probe); err != nil {
			return fmt.Errorf("engine: campaign spec: %w", err)
		}
	}
	// The largest n is the workload's strictest probe: an explicit
	// workload must hold a time for every task of every point.
	ws := s.Workload
	if ws.N == 0 {
		ws.N = slices.Max(s.Ns)
	}
	if _, err := ws.Build(); err != nil {
		return fmt.Errorf("engine: campaign spec: %w", err)
	}
	return nil
}

// Canonical returns the canonical JSON encoding of the spec: the
// normalized spec marshaled with fixed field order. Two specs describing
// the same campaign produce identical bytes.
func (s CampaignSpec) Canonical() ([]byte, error) {
	return json.Marshal(s.Normalize())
}

// Hash returns the spec's content address: the hex SHA-256 of the
// domain-prefixed canonical encoding.
func (s CampaignSpec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(specHashDomain))
	h.Write(c)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ParseSpec decodes a JSON campaign spec, rejecting unknown fields, and
// validates it.
func ParseSpec(data []byte) (CampaignSpec, error) {
	var s CampaignSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return CampaignSpec{}, fmt.Errorf("engine: parse campaign spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return CampaignSpec{}, err
	}
	return s, nil
}

// Points expands the grid into concrete run specs in n-major, then p,
// then technique order, building one workload per task count.
func (s CampaignSpec) Points() ([]RunSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	points := make([]RunSpec, 0, len(s.Ns)*len(s.Ps)*len(s.Techniques))
	for _, n := range s.Ns {
		ws := s.Workload
		if ws.N == 0 {
			ws.N = n
		}
		work, err := ws.Build()
		if err != nil {
			return nil, fmt.Errorf("engine: campaign spec: %w", err)
		}
		for _, p := range s.Ps {
			for _, tech := range s.Techniques {
				points = append(points, RunSpec{
					Technique:      tech,
					N:              n,
					P:              p,
					Work:           work,
					Speeds:         s.Speeds,
					StartTimes:     s.StartTimes,
					H:              s.H,
					HInDynamics:    s.HInDynamics,
					PerMessageCost: s.PerMessageCost,
					MinChunk:       s.MinChunk,
					Chunk:          s.Chunk,
					First:          s.First,
					Last:           s.Last,
					Alpha:          s.Alpha,
					Weights:        s.Weights,
				})
			}
		}
	}
	return points, nil
}

// seedFunc returns the policy's (point, rep) → rand48-state derivation
// for the given expanded points. RepOffset shifts the replication index
// fed to every derivation, so a sharded sub-spec reproduces exactly the
// seeds its replication window has in the parent grid. The per-cell
// bases derive from cell identity (technique, n, p), never from the
// point's position in the grid, which is what makes point-subset
// sharding seed-exact without any further bookkeeping.
func (s CampaignSpec) seedFunc(points []RunSpec) func(point, rep int) uint64 {
	seed, off := s.Seed, s.RepOffset
	switch s.Normalize().SeedPolicy {
	case SeedFlat:
		return func(_, rep int) uint64 { return rng.RunSeed(seed, off+rep) }
	case SeedFacade:
		return func(_, rep int) uint64 { return rng.Mix64(rng.RunSeed(seed, off+rep)) }
	case SeedShared:
		state := rng.Mix64(seed)
		return func(_, _ int) uint64 { return state }
	default: // SeedPerCell
		bases := make([]uint64, len(points))
		for i, pt := range points {
			bases[i] = rng.CellSeed(seed, pt.Technique, pt.N, pt.P)
		}
		return func(point, rep int) uint64 { return rng.RunSeed(bases[point], off+rep) }
	}
}
