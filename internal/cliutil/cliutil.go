// Package cliutil holds the behavior the dlsim, repro and dlsimd
// commands share: process exit-code policy, signal-driven cancellation
// contexts, opening the content-addressed result cache, building
// streaming per-run sinks for -out, and executing a declarative
// campaign spec file. Helpers return errors; commands route them
// through Exit/ExitCode so every binary reports failures consistently:
// usage errors exit 2, runtime failures exit 1, and interrupted runs
// exit 130 (128 + SIGINT), with partial streaming output flushed by the
// engine's sink-closing guarantees.
package cliutil

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/campaign"
	"repro/campaign/distrib"
	"repro/client"
	"repro/internal/ascii"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// Exit codes shared by all commands.
const (
	ExitOK        = 0   // success
	ExitFailure   = 1   // runtime failure (simulation, I/O, service errors)
	ExitUsage     = 2   // bad flags, arguments or spec files
	ExitCancelled = 130 // interrupted by SIGINT/SIGTERM (128 + SIGINT)
)

// UsageError marks an error caused by how the command was invoked
// (unknown subcommand, missing required flag, malformed argument), as
// opposed to a failure while doing the requested work.
type UsageError struct{ Msg string }

func (e *UsageError) Error() string { return e.Msg }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{Msg: fmt.Sprintf(format, args...)}
}

// ExitCode maps an error to the command's exit code: nil → ExitOK,
// usage errors → ExitUsage, cancellation (a wrapped context.Canceled or
// DeadlineExceeded, e.g. after Ctrl-C) → ExitCancelled, anything else →
// ExitFailure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, new(*UsageError)):
		return ExitUsage
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return ExitCancelled
	default:
		return ExitFailure
	}
}

// Exit logs err (when non-nil) and terminates the process with the
// matching exit code. Call it only after all deferred cleanup has run —
// os.Exit skips defers.
func Exit(err error) {
	if err != nil {
		log.Print(err)
	}
	os.Exit(ExitCode(err))
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM, so a
// Ctrl-C (or an orchestrator's termination signal) cancels in-flight
// campaigns through the engine's context plumbing instead of killing
// the process mid-write. The stop function releases the signal handler;
// a second signal while stopping falls back to the Go runtime's default
// (immediate) termination.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// OpenStore opens the on-disk result cache rooted at dir, or returns a
// nil store when no cache was requested.
func OpenStore(dir string) (cache.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return cache.NewDisk(dir)
}

// OpenOut builds the streaming per-run sink for an -out flag: a CSV
// sink by default, JSON Lines for a .jsonl/.json suffix, stdout for
// "-". The returned close function is idempotent and safe to defer; it
// flushes and closes the underlying file so partial output survives a
// cancelled campaign.
func OpenOut(path string) ([]engine.Sink, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	var (
		w io.Writer = os.Stdout
		f *os.File
	)
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		w = f
	}
	var sink engine.Sink
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json") {
		sink = engine.NewJSONLSink(w)
	} else {
		sink = engine.NewCSVSink(w)
	}
	var once sync.Once
	closeOut := func() error {
		var err error
		once.Do(func() {
			if f == nil {
				return
			}
			if err = f.Close(); err != nil {
				return
			}
			log.Printf("wrote per-run metrics to %s", path)
		})
		return err
	}
	return []engine.Sink{sink}, closeOut, nil
}

// NewRunner builds the campaign executor the -server flag selects: a
// remote client.Client speaking the dlsimd /v1 API when server names a
// base URL, otherwise an in-process LocalRunner over the given store
// and worker bound. A malformed server URL is a usage error.
func NewRunner(server string, store cache.Store, workers int) (campaign.Executor, error) {
	if server == "" {
		return campaign.NewLocal(campaign.LocalConfig{Store: store, Workers: workers}), nil
	}
	c, err := client.New(server)
	if err != nil {
		return nil, Usagef("server: %v", err)
	}
	return c, nil
}

// NewFleetRunner builds the distributed coordinator the -servers flag
// selects: one SDK client per comma-separated dlsimd base URL, fanned
// out through campaign/distrib with opts. Each client gets a retrying
// transport (client.DefaultRetry) so transient node hiccups are
// absorbed below the coordinator's own shard retry. Results are
// bit-identical to a single-node or in-process run of the same spec.
// When metricsFile is non-empty, the coordinator reports into a fresh
// registry (replacing opts.Registry) whose fault-tolerance metrics
// (breaker states and transitions, hedges, retries) are written there
// in Prometheus text format when the runner is cleaned up — scrapeable
// offline with cmd/metricscheck. A malformed URL list is a usage error.
func NewFleetRunner(servers string, opts distrib.Options, metricsFile string) (campaign.Executor, func(), error) {
	var nodes []campaign.Runner
	for _, raw := range strings.Split(servers, ",") {
		u := strings.TrimSpace(raw)
		if u == "" {
			continue
		}
		c, err := client.New(u, client.WithOptions(client.Options{Retry: client.DefaultRetry}))
		if err != nil {
			return nil, nil, Usagef("servers: %v", err)
		}
		nodes = append(nodes, c)
	}
	if len(nodes) == 0 {
		return nil, nil, Usagef("servers: no base URLs in %q", servers)
	}
	if metricsFile != "" {
		opts.Registry = telemetry.NewRegistry()
	}
	coord, err := distrib.New(nodes, opts)
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() {
		_ = coord.Close()
		if metricsFile == "" {
			return
		}
		if err := writeMetricsFile(metricsFile, opts.Registry); err != nil {
			log.Printf("fleet metrics: %v", err)
		} else {
			log.Printf("wrote fleet metrics to %s", metricsFile)
		}
	}
	return coord, cleanup, nil
}

// writeMetricsFile dumps a registry's exposition to path, the offline
// twin of a /metrics scrape.
func writeMetricsFile(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	reg.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunCampaign executes spec through the executor — in-process, a remote
// dlsimd or a fleet — with sinks observing the per-run stream. When a
// fleet cannot finish the campaign (a *distrib.Incomplete), the sinks
// still hold the completed prefix: the report of what completed, which
// shard windows are missing and why, and each node's condition goes to
// stderr before the error is returned to decide the exit code.
func RunCampaign(ctx context.Context, r campaign.Executor, spec campaign.Spec, sinks []engine.Sink) (*campaign.Result, error) {
	res, err := campaign.Run(ctx, r, spec, sinks...)
	if err != nil {
		reportIncomplete(err)
	}
	return res, err
}

// reportIncomplete renders the *distrib.Incomplete that err carries, if
// any, for the terminal.
func reportIncomplete(err error) {
	var inc *distrib.Incomplete
	if !errors.As(err, &inc) {
		return
	}
	fmt.Fprintf(os.Stderr, "\npartial results: %d/%d runs completed; streamed output holds the completed prefix\n",
		inc.CompletedRuns, inc.TotalRuns)
	for _, m := range inc.Missing {
		fmt.Fprintf(os.Stderr, "  missing shard %d: point %d reps [%d,%d): %s\n",
			m.Shard, m.Point, m.RepOff, m.RepOff+m.Reps, m.Cause)
	}
	for _, n := range inc.Nodes {
		fmt.Fprintf(os.Stderr, "  node %d: breaker %s", n.Node, n.Breaker)
		if n.Cause != "" {
			fmt.Fprintf(os.Stderr, " (%s)", n.Cause)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// RunSpecFile executes the declarative campaign spec in the given JSON
// file through the executor — in-process, a remote dlsimd or a fleet —
// and prints one aggregate row per grid point. An unreadable or invalid
// spec file is a usage error; cancelling ctx aborts the campaign with a
// cancellation error.
func RunSpecFile(ctx context.Context, path string, r campaign.Executor, sinks []engine.Sink) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return Usagef("spec: %v", err)
	}
	spec, err := engine.ParseSpec(data)
	if err != nil {
		return Usagef("spec %s: %v", path, err)
	}
	hash, err := spec.Hash()
	if err != nil {
		return err
	}
	res, err := RunCampaign(ctx, r, spec, sinks)
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s: %d points × %d replications (backend %s)\n\n",
		hash[:12], len(res.Aggregates), spec.Replications, spec.Normalize().Backend)
	var tb ascii.Table
	tb.AddRow("technique", "n", "p", "mean_wasted_s", "std_wasted_s", "mean_makespan_s", "mean_speedup", "mean_ops")
	for _, agg := range res.Aggregates {
		tb.AddRowf(agg.Spec.Technique, agg.Spec.N, agg.Spec.P,
			agg.Wasted.Mean, agg.Wasted.Std, agg.Makespan.Mean, agg.Speedup.Mean, agg.MeanOps)
	}
	os.Stdout.WriteString(tb.String())
	// Campaign-level roll-up from the streaming accumulator merge.
	o := res.Overall
	fmt.Printf("\noverall wasted time across %d runs: mean %.6g s, std %.6g s, range [%.6g, %.6g] s\n",
		o.N(), o.Mean(), o.Std(), o.Min(), o.Max())
	return nil
}
