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

	// ChunkSize is the number of consecutive replications of one point
	// executed per work item. Larger chunks amortize pipeline overhead;
	// smaller chunks balance load. 0 auto-sizes per point: about 8
	// chunks of every point per worker, at most 1024 runs each. Like
	// Workers it changes scheduling, never results.
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
	// Returns before stream or replay run must still close cfg.Sinks —
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
			if perRun, ok := decodeCacheEntry(data, key, len(points), s.Replications); ok {
				return s.replay(ctx, points, perRun, cfg)
			}
			// Undecodable, corrupt or mismatched entry: fall through to
			// a live run, which overwrites it.
		}
	}

	c := campaign{
		backend:      s.Backend,
		points:       points,
		replications: s.Replications,
		workers:      cfg.Workers,
		chunkSize:    cfg.ChunkSize,
		seedFor:      s.seedFunc(points),
	}
	// Per-run metrics are always folded by the Aggregator; they are
	// needed for the median, the optional PerRun export and the cache
	// entry.
	agg := newAggregator(points, s.Replications, cfg.KeepPerRun)
	if err := c.stream(ctx, append([]Sink{agg}, cfg.Sinks...)); err != nil {
		return nil, err
	}
	if cfg.Cache != nil {
		// Best effort: a failed Put never fails the campaign.
		_ = cfg.Cache.Put(ctx, key, encodeCacheEntry(key, agg.perRun))
	}
	return agg.Result(), nil
}

// replay reconstructs the campaign result from a validated cache entry,
// feeding the stored per-run metrics through the same delivery stage a
// live execution uses, one point at a time — zero backend runs. A sink
// error or context cancellation aborts the replay and is returned,
// mirroring a live run.
func (s CampaignSpec) replay(ctx context.Context, points []RunSpec, perRun [][]RunMetrics, cfg ExecConfig) (*CampaignResult, error) {
	agg := newAggregator(points, s.Replications, cfg.KeepPerRun)
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
	return agg.Result(), nil
}
