// Package distrib shards one campaign across a fleet of runners and
// merges the results bit-identically to a single-node run.
//
// A Coordinator is a campaign.Executor, so campaign.Run drives a fleet
// as it drives one node. Its nodes are campaign.Runners — dlsimd
// daemons through client.Client — and each shard is one job in a
// node's job API. Execute places every shard and
// merges the shard streams in plan order as they complete; it is the
// coordinator's one way to run a campaign.
//
// # Sharding model
//
// A campaign's runs form one global sequence: grid points in the
// spec's deterministic expansion order (n-major, then p, then
// technique), replications ascending within each point. The planner
// cuts that sequence into Options.Shards contiguous, near-equal
// segments and decomposes every segment into per-point pieces. Each
// piece becomes an ordinary CampaignSpec via Spec.SubSpec — a
// single-point spec whose RepOffset shifts seed derivation so its run
// r draws exactly the rand48 state the parent assigns to
// (point, repOff+r), under all four seed policies. A piece is
// therefore a first-class campaign: hashable, cacheable, executable by
// any node, with its sub-spec hash as content address.
//
// # Determinism
//
// The merge stage forwards piece streams in plan order, rewriting each
// row's shard-local coordinates back to the parent grid. Because every
// node computes bit-identical metrics for a given spec and the JSONL
// encoding round-trips floats exactly, the merged stream is
// byte-for-byte the stream a single node produces for the whole spec,
// for any shard count and any fleet — and the aggregates, folded by
// the same engine.Aggregator over the same stream, are bit-identical
// too.
//
// # Fault handling
//
// A shard gets three attempts, rotating through the fleet, with a
// backoff of 100ms doubling up to 5s between them, so shards stranded
// on a dead node are reassigned to survivors. A rate-limited attempt
// retries the same node instead, after the server's Retry-After when
// that is longer than the backoff. Three node-attributable failures in
// a row open a node's circuit breaker for 2s, after which a single
// half-open attempt decides whether it closes. A draining dlsimd
// refuses submissions, and a dead one fails them, so both are routed
// around by the same rotation and breaker; the coordinator runs no
// health prober. Options.HedgeAfter re-dispatches a straggling shard
// on the next node. A campaign the fleet cannot finish stops at its
// first unrecoverable shard: the sinks keep the byte-identical
// completed prefix, and the error is an *Incomplete naming every
// missing shard window and each node's condition.
//
// A reassigned or re-submitted shard whose sub-spec results already
// sit in a store shared by the fleet (dlsimd -cache on a shared
// directory) replays from the cache with zero backend runs —
// shard-level idempotency via content addressing.
package distrib
