package engine

import (
	"context"
	"fmt"

	"repro/internal/cache"
)

// ExecConfig carries the execution parameters of a CampaignSpec run —
// everything that may change how fast results arrive but never what
// they are. None of it participates in the spec hash.
type ExecConfig struct {
	// Workers bounds concurrently executing runs; 0 selects GOMAXPROCS.
	Workers int

	// ChunkSize is the number of consecutive replications executed per
	// work item (see Campaign.ChunkSize); 0 auto-sizes. Like Workers it
	// changes scheduling, never results.
	ChunkSize int

	// KeepPerRun retains the per-run metrics in each Aggregate (the
	// paper's Figure 9 analysis needs them).
	KeepPerRun bool

	// Cache, when non-nil, is consulted under the spec's hash before
	// simulating and filled after. A hit replays the stored per-run
	// metrics through the sinks and aggregation, performing zero backend
	// runs; by determinism the replayed aggregates are bit-identical to
	// a live execution. Cache writes are best effort: a failed Put never
	// fails the campaign.
	Cache cache.Store

	// Sinks observe the ordered per-run event stream (live or replayed).
	Sinks []Sink
}

// Execute runs the campaign described by the spec, streaming per-run
// events to cfg.Sinks and returning the per-point aggregates. With a
// cache configured, a repeated spec (same hash) is served entirely from
// the cache. Cancelling ctx aborts the execution (live or replayed)
// with an error wrapping ctx.Err(); no further backend runs are
// performed after cancellation is observed and every sink is closed
// exactly once.
func (s CampaignSpec) Execute(ctx context.Context, cfg ExecConfig) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Returns before Stream or replay run must still close cfg.Sinks —
	// the Sink contract is one Close call on every path.
	points, err := s.Points()
	if err != nil {
		return nil, closeSinks(cfg.Sinks, err)
	}

	var key string
	if cfg.Cache != nil {
		key, err = s.Hash()
		if err != nil {
			return nil, closeSinks(cfg.Sinks, err)
		}
		if data, ok, err := cfg.Cache.Get(ctx, key); err != nil {
			return nil, closeSinks(cfg.Sinks, err)
		} else if ok {
			if ent, ok := decodeCacheEntry(data, key, len(points), s.Replications); ok {
				// Aggregate-only request against an entry carrying a
				// snapshot: serve the stored aggregates directly — the
				// per-run records are never touched, let alone decoded.
				if ent.snap != nil && len(cfg.Sinks) == 0 && !cfg.KeepPerRun {
					if err := ctx.Err(); err != nil {
						return nil, fmt.Errorf("engine: campaign: %w", err)
					}
					return ent.snap.result(points), nil
				}
				return s.replay(ctx, points, ent.perRunMetrics(), cfg)
			}
			// Undecodable, corrupt or mismatched entry: fall through to
			// a live run, which overwrites it.
		}
	}

	// The campaign reuses the expansion above instead of Compile, which
	// would expand and validate the grid a second time.
	c := Campaign{
		Backend:      s.Backend,
		Points:       points,
		Replications: s.Replications,
		Workers:      cfg.Workers,
		ChunkSize:    cfg.ChunkSize,
		SeedFor:      s.seedFunc(points),
	}
	// Per-run metrics are always folded by the aggregating sink; they
	// are needed for the median, the optional PerRun export and the
	// cache entry.
	agg := newAggregateSink(points, s.Replications, cfg.KeepPerRun)
	if err := c.Stream(ctx, append([]Sink{agg}, cfg.Sinks...)...); err != nil {
		return nil, err
	}
	res := &CampaignResult{Aggregates: agg.Aggregates(), Overall: agg.Overall()}
	if cfg.Cache != nil {
		// Version-2 binary entry: per-run records plus the snapshot of
		// the final aggregates, so a future aggregate-only hit replays
		// without decoding a single run. Best effort: a failed Put never
		// fails the campaign.
		_ = cfg.Cache.Put(ctx, key, encodeCacheEntry(key, agg.perRun, res))
	}
	return res, nil
}

// replay reconstructs the campaign result from a validated cache entry,
// feeding the stored per-run metrics through the same delivery stage a
// live execution uses, one point at a time — zero backend runs. A sink
// error or context cancellation aborts the replay and is returned,
// mirroring Stream.
func (s CampaignSpec) replay(ctx context.Context, points []RunSpec, perRun [][]RunMetrics, cfg ExecConfig) (*CampaignResult, error) {
	agg := newAggregateSink(points, s.Replications, cfg.KeepPerRun)
	sinks := append([]Sink{agg}, cfg.Sinks...)
	d := newDelivery(points, s.seedFunc(points), sinks)
	var err error
	for pi := range points {
		if err = ctx.Err(); err != nil {
			err = fmt.Errorf("engine: campaign: %w", err)
			break
		}
		if err = d.deliver(ctx, pi, 0, perRun[pi]); err != nil {
			break
		}
	}
	if err := closeSinks(sinks, err); err != nil {
		return nil, err
	}
	return &CampaignResult{Aggregates: agg.Aggregates(), Overall: agg.Overall()}, nil
}
