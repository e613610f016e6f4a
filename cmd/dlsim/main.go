// Command dlsim runs dynamic-loop-scheduling simulations and prints
// their timing results — the smallest useful entry point into the
// library (paper Figure 2's information model maps directly onto the
// flags).
//
// Flag-driven single-point campaigns compile to a declarative
// engine.CampaignSpec, so they are content-addressable: with -cache a
// repeated invocation (same flags, same seed) is served from the result
// store without re-simulation. A -replay campaign is one too: its
// workload is the trace's per-task times. Whole grids run from a JSON
// spec file via -spec, and -out streams every run's metrics as CSV or
// JSON Lines.
//
// Ctrl-C (or SIGTERM) cancels an in-flight campaign cleanly: streaming
// output written so far is flushed and the command exits with code 130;
// usage errors exit 2 and runtime failures exit 1 (internal/cliutil).
//
// Examples:
//
//	dlsim -tech FAC2 -n 8192 -p 64                      # Hagerup defaults
//	dlsim -tech TSS -n 100000 -p 72 -dist constant -p1 110e-6
//	dlsim -tech GSS -n 10000 -p 16 -min-chunk 5 -per-run 10
//	dlsim -tech WF -n 4096 -p 4 -weights 1,1,2,4
//	dlsim -tech FAC2 -n 8192 -p 64 -backend msg         # full MSG model
//	dlsim -spec campaign.json -cache .dlsim-cache       # declarative grid
//	dlsim -tech FAC -per-run 1000 -out runs.csv         # raw per-run data
//	dlsim -replay trace.csv -cache .dlsim-cache         # recorded task times
//	dlsim -spec campaign.json -server http://host:8080  # execute on a dlsimd daemon
//	dlsim -spec campaign.json -servers http://a:8080,http://b:8080 -shards 4
//
// With -server the campaign executes remotely through the daemon's /v1
// API (the repro/client SDK) instead of in-process; results — streamed
// -out files and the printed aggregates alike — are bit-identical to a
// local run of the same spec. With -servers the campaign is sharded
// across a fleet of daemons (campaign/distrib) and merged back
// bit-identically, with failed or straggling shards retried on
// surviving nodes. A fleet run that cannot finish keeps the completed
// prefix in -out, reports every missing shard window and each node's
// condition on stderr, and exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/campaign"
	"repro/campaign/distrib"
	"repro/internal/ascii"
	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// distParams is workload.Spec.Build's parameter table in flag terms:
// what each -dist kind reads from -p1, -p2 and -p3.
var distParams = map[string]string{
	"constant":    "-p1 task time > 0",
	"uniform":     "-p1 lo and -p2 hi >= lo",
	"increasing":  "-p1 first and -p2 last task time, last >= first",
	"decreasing":  "-p1 first and -p2 last task time, last <= first",
	"exponential": "-p1 mean > 0",
	"normal":      "-p1 mean > 0 and -p2 std >= 0",
	"gamma":       "-p1 shape > 0 and -p2 scale > 0",
	"bimodal":     "-p1 light and -p2 heavy task time >= 0, -p3 P(heavy) in [0, 1]",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlsim: ")
	ctx, stop := cliutil.SignalContext(context.Background())
	err := run(ctx)
	stop()
	cliutil.Exit(err)
}

func run(ctx context.Context) error {
	var (
		tech     = flag.String("tech", "FAC2", "DLS technique: "+strings.Join(sched.Names(), ", "))
		backend  = flag.String("backend", engine.DefaultBackend, "simulation backend: "+strings.Join(engine.Names(), ", "))
		workers  = flag.Int("workers", 0, "concurrent runs (0 = all CPU cores); results are worker-count independent")
		n        = flag.Int64("n", 1024, "number of tasks")
		p        = flag.Int("p", 8, "number of PEs")
		dist     = flag.String("dist", "exponential", "workload: constant, uniform, increasing, decreasing, exponential, normal, gamma, bimodal")
		p1       = flag.Float64("p1", 1, "first workload parameter (see internal/workload.Spec)")
		p2       = flag.Float64("p2", 0, "second workload parameter")
		p3       = flag.Float64("p3", 0, "third workload parameter")
		h        = flag.Float64("h", 0.5, "scheduling overhead per operation, seconds")
		seed     = flag.Uint64("seed", 1, "random seed")
		runs     = flag.Int("per-run", 1, "number of runs (mean over runs is reported)")
		minChunk = flag.Int64("min-chunk", 0, "GSS(k): minimum chunk size")
		chunk    = flag.Int64("chunk", 0, "CSS(k): fixed chunk size")
		first    = flag.Int64("first", 0, "TSS: first chunk size")
		last     = flag.Int64("last", 0, "TSS: last chunk size")
		alpha    = flag.Float64("alpha", 0, "TAP: confidence factor")
		weights  = flag.String("weights", "", "comma-separated PE weights (WF/AWF)")
		hDyn     = flag.Bool("h-in-dynamics", false, "charge h inside the master loop (ablation A1)")
		msgCost  = flag.Float64("msg-cost", 0, "fixed network cost per scheduling op, seconds (ablation A3)")
		verbose  = flag.Bool("v", false, "print per-PE breakdown")
		traceOut = flag.String("trace", "", "write a chunk-event trace of the last run to this CSV file")
		replayIn = flag.String("replay", "", "replay per-task times extracted from this trace CSV (overrides -dist)")
		specFile = flag.String("spec", "", "execute the JSON campaign spec in this file (grid flags are ignored)")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory; repeated campaigns are served without re-simulation")
		outFile  = flag.String("out", "", `stream per-run metrics to this file: .jsonl/.json selects JSON Lines, anything else CSV ("-" = CSV to stdout)`)
		server   = flag.String("server", "", "dlsimd base URL (e.g. http://localhost:8080); campaigns execute remotely through the /v1 API instead of in-process")
		servers  = flag.String("servers", "", "comma-separated dlsimd base URLs; the campaign is sharded across the fleet and merged bit-identically")
		shards   = flag.Int("shards", 0, "with -servers: number of shards to split the campaign into (0 = one per node)")
		hedge    = flag.Duration("hedge-after", 0, "with -servers: latency budget after which a straggling shard is speculatively re-submitted to a second node, first completion wins (0 = no hedging)")
		fleetMet = flag.String("fleet-metrics", "", "with -servers: write the coordinator's fault-tolerance metrics (breaker states, hedges, retries) to this file in Prometheus text format on exit")
	)
	flag.Parse()

	if *server != "" && *servers != "" {
		return cliutil.Usagef("-server and -servers are mutually exclusive")
	}
	if *server != "" || *servers != "" {
		switch {
		case *traceOut != "" || *verbose:
			return cliutil.Usagef("-trace and -v re-execute runs locally; drop -server/-servers")
		case *cacheDir != "":
			return cliutil.Usagef("-cache is the local result store; the server manages its own (drop -cache with -server/-servers)")
		}
	}
	if *servers == "" && (*shards != 0 || *hedge != 0 || *fleetMet != "") {
		return cliutil.Usagef("-shards, -hedge-after and -fleet-metrics only apply with -servers")
	}
	store, err := cliutil.OpenStore(*cacheDir)
	if err != nil {
		return err
	}
	var (
		runner      campaign.Executor
		closeRunner = func() {}
	)
	if *servers != "" {
		runner, closeRunner, err = cliutil.NewFleetRunner(*servers,
			distrib.Options{Shards: *shards, HedgeAfter: *hedge}, *fleetMet)
	} else {
		runner, err = cliutil.NewRunner(*server, store, *workers)
	}
	if err != nil {
		return err
	}
	defer closeRunner()
	sinks, closeOut, err := cliutil.OpenOut(*outFile)
	if err != nil {
		return err
	}
	defer closeOut()

	if *specFile != "" {
		if err := cliutil.RunSpecFile(ctx, *specFile, runner, sinks); err != nil {
			return err
		}
		return closeOut()
	}

	var ws []float64
	if *weights != "" {
		for _, f := range strings.Split(*weights, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return cliutil.Usagef("bad weight %q: %v", f, err)
			}
			ws = append(ws, v)
		}
	}

	workSpec := workload.Spec{Kind: *dist, P1: *p1, P2: *p2, P3: *p3}
	if *replayIn != "" {
		f, err := os.Open(*replayIn)
		if err != nil {
			return cliutil.Usagef("replay: %v", err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := tr.Validate(); err != nil {
			return err
		}
		if tasks := tr.Tasks(); tasks < *n {
			log.Printf("trace covers %d tasks; reducing -n from %d", tasks, *n)
			*n = tasks
		}
		workSpec = workload.Spec{Kind: "explicit", Times: tr.PerTaskTimes(*n)}
	}
	built := workSpec
	built.N = *n
	work, err := built.Build()
	if err != nil {
		if *replayIn != "" {
			return err
		}
		if want, ok := distParams[*dist]; ok {
			return cliutil.Usagef("-dist %s takes %s: %v", *dist, want, err)
		}
		return cliutil.Usagef("%v", err)
	}

	point := engine.RunSpec{
		Technique: *tech, N: *n, P: *p, Work: work,
		H: *h, HInDynamics: *hDyn, PerMessageCost: *msgCost,
		MinChunk: *minChunk, Chunk: *chunk, First: *first, Last: *last,
		Alpha: *alpha, Weights: ws,
	}
	lastRunState := rng.RunSeed(*seed, *runs-1)

	recorder := trace.NewRecorder()
	if *traceOut != "" {
		// Execute the final run with the recorder attached before the
		// campaign: runs are deterministic per seed, so this is the run
		// the campaign will measure — and a backend that cannot observe
		// chunks (msg) fails here, before the campaign's work is spent.
		be, err := engine.New(*backend)
		if err != nil {
			return err
		}
		spec := point
		spec.RNGState = lastRunState
		spec.Observe = recorder.Record
		if _, err := be.Run(ctx, spec); err != nil {
			return err
		}
	}

	// The flag-driven single point compiles to a declarative campaign
	// spec, which makes it hashable (therefore cacheable) and — being
	// plain data — executable by any campaign.Executor: local, remote
	// (-server) or a fleet (-servers).
	res, err := cliutil.RunCampaign(ctx, runner, engine.CampaignSpec{
		Backend:    *backend,
		Techniques: []string{*tech},
		Ns:         []int64{*n},
		Ps:         []int{*p},
		Workload:   workSpec,
		H:          *h, HInDynamics: *hDyn, PerMessageCost: *msgCost,
		MinChunk: *minChunk, Chunk: *chunk, First: *first, Last: *last,
		Alpha: *alpha, Weights: ws,
		Replications: *runs,
		Seed:         *seed,
		SeedPolicy:   engine.SeedFlat,
	}, sinks)
	if err != nil {
		return err
	}
	agg := res.Aggregates[0]
	if err := closeOut(); err != nil {
		return err
	}
	seq := workload.Total(work, *n)

	fmt.Printf("technique        %s\n", *tech)
	fmt.Printf("backend          %s\n", *backend)
	fmt.Printf("tasks            %d\n", *n)
	fmt.Printf("PEs              %d\n", *p)
	fmt.Printf("workload         %s (mu=%.4g s, sigma=%.4g s)\n", work.Name(), work.Mean(), work.Std())
	fmt.Printf("overhead h       %.4g s\n", *h)
	fmt.Printf("runs             %d\n", *runs)
	fmt.Printf("mean makespan    %.6g s\n", agg.Makespan.Mean)
	fmt.Printf("mean sched ops   %.6g\n", agg.MeanOps)
	fmt.Printf("mean avg wasted  %.6g s\n", agg.Wasted.Mean)
	fmt.Printf("speedup          %.4g (ideal %d)\n", seq/agg.Makespan.Mean, *p)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.Write(f, recorder.Trace()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("wrote %d chunk events to %s", len(recorder.Trace().Events), *traceOut)
	}

	if *verbose {
		// Re-execute the campaign's last run directly: runs are
		// deterministic per (seed, run) so this reproduces exactly the
		// run the aggregate saw, without retaining every result.
		be, err := engine.New(*backend)
		if err != nil {
			return err
		}
		spec := point
		spec.RNGState = lastRunState
		lastRes, err := be.Run(ctx, spec)
		if err != nil {
			return err
		}
		fmt.Println("\nlast run, per PE:")
		var tb ascii.Table
		tb.AddRow("PE", "tasks", "ops", "compute_s", "idle_s")
		for w := 0; w < *p; w++ {
			tb.AddRowf(w, lastRes.TasksPerWorker[w], lastRes.OpsPerWorker[w],
				lastRes.Compute[w], lastRes.Makespan-lastRes.Compute[w])
		}
		os.Stdout.WriteString(tb.String())
	}
	return nil
}
