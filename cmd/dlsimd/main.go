// Command dlsimd is the campaign service daemon: a long-running HTTP
// server that accepts declarative campaign specs, executes them through
// the engine's context-aware pipeline, and streams results back as JSON
// Lines or CSV.
//
// Concurrent identical submissions are deduplicated (singleflight on
// the canonical spec hash) so any number of clients asking the same
// question share one execution; completed campaigns live in the
// content-addressed result store, so re-submitting a spec is served
// with zero backend runs. SIGINT/SIGTERM shut the daemon down
// gracefully: the listener stops, in-flight jobs are cancelled through
// their contexts, and the worker pools drain. With -drain-jobs the
// daemon drains first: readiness (GET /v1/health) flips to 503 with
// draining=true, the queue stops accepting submissions, and active
// jobs get a bounded window to finish before anything is cancelled.
//
// Production hardening is opt-in per subsystem: -journal DIR keeps a
// durable, checksummed lifecycle journal (terminal jobs survive a
// crash; interrupted jobs are re-enqueued and replay from the result
// cache with zero backend runs), -auth FILE enables multi-tenant API
// keys, -rate/-quota-queued/-quota-running bound each tenant's request
// rate and job footprint, and -metrics exposes a Prometheus endpoint.
// These hardening flags, -workers and -drain-jobs have DLSIMD_*
// environment fallbacks (flags win; API.md's flag table names each
// variable), so deployments can be configured without editing unit
// files. -addr, -cache, -queue, -jobs, -drain and -pprof are flags only.
//
// Quickstart:
//
//	dlsimd -addr :8080 -cache .dlsim-cache &
//	curl -s -X POST localhost:8080/v1/jobs -d @campaign.json
//	curl -s localhost:8080/v1/jobs/j1
//	curl -s localhost:8080/v1/jobs/j1/results          # JSON Lines
//	curl -s 'localhost:8080/v1/jobs/j1/results?format=csv'
//	curl -s -X DELETE localhost:8080/v1/jobs/j1        # cancel
//
// Production:
//
//	dlsimd -addr :8080 -cache /var/lib/dlsim/cache \
//	       -journal /var/lib/dlsim/journal -auth /etc/dlsim/keys \
//	       -rate 20 -quota-queued 16 -quota-running 2 -metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/campaign"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/mw"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlsimd: ")
	ctx, stop := cliutil.SignalContext(context.Background())
	err := run(ctx)
	stop()
	cliutil.Exit(err)
}

func run(ctx context.Context) error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cache", "", "content-addressed result store directory, the daemon's only store (default: an in-memory store that never evicts)")
		queue     = flag.Int("queue", 64, "bounded submission queue depth")
		jobsN     = flag.Int("jobs", 1, "campaigns executing concurrently")
		workers   = flag.Int("workers", env("DLSIMD_WORKERS", 0, strconv.Atoi), "concurrent runs per campaign (0 = all CPU cores; env DLSIMD_WORKERS)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful shutdown window for in-flight HTTP requests")
		drainJobs = flag.Duration("drain-jobs", env("DLSIMD_DRAIN_JOBS", 0, time.ParseDuration),
			"on SIGTERM/SIGINT, stop accepting submissions (health reports draining, /v1/health goes 503) and let running jobs finish for up to this long before cancelling them; 0 cancels immediately (env DLSIMD_DRAIN_JOBS)")
		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")

		journalDir = flag.String("journal", env("DLSIMD_JOURNAL", "", parseString), "durable job journal directory; enables crash recovery (env DLSIMD_JOURNAL)")
		authFile   = flag.String("auth", env("DLSIMD_AUTH", "", parseString), "API key file of tenant:key lines; enables multi-tenant auth (env DLSIMD_AUTH)")
		rate       = flag.Float64("rate", env("DLSIMD_RATE", 0, parseFloat), "per-tenant API requests per second, 0 = unlimited (env DLSIMD_RATE)")
		quotaQ     = flag.Int("quota-queued", env("DLSIMD_QUOTA_QUEUED", 0, strconv.Atoi), "max jobs one tenant may have queued, 0 = unlimited (env DLSIMD_QUOTA_QUEUED)")
		quotaR     = flag.Int("quota-running", env("DLSIMD_QUOTA_RUNNING", 0, strconv.Atoi), "max jobs one tenant may have running, 0 = unlimited (env DLSIMD_QUOTA_RUNNING)")
		metricsOn  = flag.Bool("metrics", env("DLSIMD_METRICS", false, strconv.ParseBool), "expose Prometheus metrics at /metrics (env DLSIMD_METRICS)")
	)
	flag.Parse()

	// One store per process: the disk store with -cache, which survives
	// daemon restarts, or else a memory store, which never evicts.
	var store cache.Store
	if *cacheDir != "" {
		disk, err := cache.NewDisk(*cacheDir)
		if err != nil {
			return err
		}
		store = disk
		log.Printf("result store: disk at %s", disk.Dir())
	} else {
		store = cache.NewMemory()
		log.Print("result store: in-memory (pass -cache DIR for durability)")
	}
	// The counting wrapper feeds the cache hit/miss/put gauges; it is
	// pass-through when metrics are off, so always wrapping keeps one
	// code path.
	counted := cache.NewCounting(store)

	// Journal first: the manager's lifecycle observer appends to it, and
	// recovery replays its records once the manager exists.
	var jn *journal.Journal
	var recovered []journal.Record
	if *journalDir != "" {
		var err error
		jn, recovered, err = journal.Open(*journalDir)
		if err != nil {
			return err
		}
		defer jn.Close()
		log.Printf("journal: %s (%d records recovered)", *journalDir, len(recovered))
	}

	var m *daemonMetrics
	if *metricsOn {
		m = newDaemonMetrics()
	}
	// journalDegraded turns sticky-true on the first append/sync failure
	// and is reported by /v1/health: the daemon stays available, but
	// operators can see that crash durability is no longer guaranteed.
	var journalDegraded atomic.Bool
	var observers []jobs.Observer
	if jn != nil {
		observers = append(observers, journalObserver{jn: jn, onErr: func(error) {
			journalDegraded.Store(true)
			if m != nil {
				m.journalErrors.Inc()
			}
		}})
	}
	if m != nil {
		observers = append(observers, m)
	}
	var observer jobs.Observer
	if len(observers) > 0 {
		observer = jobs.MultiObserver(observers...)
	}

	mgr := jobs.NewManager(jobs.Config{
		Store:        counted,
		QueueDepth:   *queue,
		Concurrency:  *jobsN,
		Workers:      *workers,
		QuotaQueued:  *quotaQ,
		QuotaRunning: *quotaR,
		Observer:     observer,
	})
	defer mgr.Close()
	if m != nil {
		m.bind(mgr, counted)
	}
	if *quotaQ > 0 || *quotaR > 0 {
		log.Printf("quotas: %d queued, %d running per tenant (0=unlimited)", *quotaQ, *quotaR)
	}

	if jn != nil {
		restoreFromJournal(recovered, mgr)
		// Startup compaction trims terminal history accumulated by prior
		// runs so the journal does not grow without bound across restarts.
		if err := jn.Compact(512); err != nil {
			log.Printf("journal: startup compaction: %v", err)
		}
	}

	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	effJobs := *jobsN
	if effJobs <= 0 {
		effJobs = 1
	}
	log.Printf("execution: %d cpus, %d workers/campaign, %d concurrent campaigns",
		runtime.NumCPU(), effWorkers, effJobs)

	svc := service.New(mgr)
	svc.SetExecution(campaign.Execution{
		CPUs:        runtime.NumCPU(),
		Workers:     effWorkers,
		Concurrency: effJobs,
	})
	hasJournal, hasAuth := jn != nil, *authFile != ""
	svc.SetHealthHook(func(h *campaign.Health) {
		if hasJournal {
			h.Journal = "ok"
			if journalDegraded.Load() {
				h.Journal = "degraded"
			}
		}
		h.Auth = hasAuth
	})
	api := svc.Handler()

	// Middleware chain over the /v1 surface, outermost first: metrics
	// instrumentation sees every request (including rejected ones), auth
	// establishes the tenant, the rate limiter consumes its budget.
	// /healthz and /metrics stay outside the chain — probes and scrapers
	// carry no API keys.
	var chain []func(http.Handler) http.Handler
	if m != nil {
		chain = append(chain, mw.Instrument(m.observe))
	}
	if *authFile != "" {
		keys, err := mw.LoadKeyfile(*authFile)
		if err != nil {
			return err
		}
		var onDenied func()
		if m != nil {
			onDenied = m.authRejected.Inc
		}
		chain = append(chain, mw.Auth(keys, onDenied))
		log.Printf("auth: API keys loaded from %s", *authFile)
	}
	if *rate > 0 {
		burst := int(2 * *rate)
		if burst < 1 {
			burst = 1
		}
		var onLimited func()
		if m != nil {
			onLimited = m.rateLimited.Inc
		}
		chain = append(chain, mw.RateLimit(mw.NewLimiter(*rate, burst), onLimited))
		log.Printf("rate limit: %g req/s per tenant (burst %d)", *rate, burst)
	}
	v1 := mw.Chain(api, chain...)

	root := http.NewServeMux()
	root.Handle("/v1", v1)
	root.Handle("/v1/", v1)
	root.Handle("/healthz", api)
	if m != nil {
		root.Handle("/metrics", m.reg.Handler())
		log.Print("metrics: Prometheus exposition at /metrics")
	}
	handler := http.Handler(root)
	if *pprofOn {
		// Off by default: the profiling surface is for operators, not the
		// public v1 API, and it exposes stacks and heap contents. The
		// handlers are registered on the daemon's own mux (never the
		// package-global http.DefaultServeMux), so the flag is the only
		// way they become reachable.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Print("pprof: profiling handlers enabled under /debug/pprof/")
	}

	srv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}

	// Explicit listen so ":0" deployments (tests, parallel daemons) can
	// learn the bound port from the log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", ln.Addr())
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		// Listener failed before any signal (bad address, port in use).
		return err
	case <-ctx.Done():
	}

	if *drainJobs > 0 {
		// Drain before teardown: readiness flips (GET /v1/health turns
		// 503 with draining=true, steering pools and load balancers
		// away), the queue refuses new submissions, and running plus
		// already-queued jobs get up to the window to finish — during
		// which the HTTP server still serves status reads and result
		// streams. Jobs still live when the window closes fall through
		// to the usual cancellation below.
		log.Printf("draining: refusing new submissions, waiting up to %v for active jobs", *drainJobs)
		mgr.Drain()
		wctx, wcancel := context.WithTimeout(context.Background(), *drainJobs)
		if err := mgr.WaitIdle(wctx); err != nil {
			log.Print("drain window expired; cancelling remaining jobs")
		} else {
			log.Print("drained: all jobs terminal")
		}
		wcancel()
	}

	log.Print("shutting down: draining HTTP, cancelling in-flight jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// mgr.Close (deferred) cancels queued and running jobs and waits for
	// the campaign workers to drain; a signal-driven shutdown is a clean
	// exit, not a failure.
	return nil
}
