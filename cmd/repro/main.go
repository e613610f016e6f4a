// Command repro regenerates every table and figure of the paper's
// evaluation section:
//
//	repro tss1                  Figure 3  (TSS publication, experiment 1)
//	repro tss2                  Figure 4  (TSS publication, experiment 2)
//	repro hagerup -n 1024       Figure 5  (a–d panels)
//	repro hagerup -n 8192       Figure 6
//	repro hagerup -n 65536      Figure 7
//	repro hagerup -n 524288     Figure 8
//	repro fig9                  Figure 9  (FAC per-run analysis)
//	repro tables                Tables II and III
//	repro csv -out DIR          raw data export (paper §V)
//	repro spec -spec FILE       run a declarative JSON campaign spec
//	repro all                   everything above
//
// The paper's full configuration uses 1000 runs per cell; pass -runs to
// trade precision for speed (e.g. -runs 50 completes in seconds).
//
// Grid experiments (hagerup, fig9, extension, csv, spec) accept -cache
// DIR: results are content-addressed by the canonical hash of the
// campaign spec, so a repeated invocation is served from the store
// without re-simulation. The hagerup, fig9 and spec subcommands accept
// -out FILE to stream every run's metrics as CSV (or JSON Lines with a
// .jsonl suffix) while the campaign executes; for the csv subcommand
// -out names the output directory.
//
// Grid experiments also accept -server URL: the campaigns then execute
// on a remote dlsimd daemon through the typed /v1 client SDK
// (repro/client) instead of in-process, with bit-identical results —
// the figures and tables come out the same either way.
//
// Ctrl-C (or SIGTERM) cancels the in-flight campaign cleanly through
// the engine's context plumbing: partial -out output is flushed and the
// command exits with code 130. Usage errors exit 2, runtime failures 1
// (internal/cliutil).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/campaign"
	"repro/internal/ascii"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	ctx, stop := cliutil.SignalContext(context.Background())
	err := run(ctx)
	stop()
	cliutil.Exit(err)
}

func run(ctx context.Context) error {
	if len(os.Args) < 2 {
		usage()
		return cliutil.Usagef("missing subcommand")
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		runs     = fs.Int("runs", 1000, "runs per grid cell (paper: 1000)")
		seed     = fs.Uint64("seed", 20170601, "base seed (must differ from the reference seed)")
		n        = fs.Int64("n", 1024, "task count for the hagerup subcommand")
		out      = fs.String("out", "", `csv subcommand: output directory (default "rawdata"); hagerup/fig9/spec: stream per-run metrics to this file (.jsonl = JSON Lines, otherwise CSV)`)
		msg      = fs.Bool("msg", false, "drive TSS experiments through the full MSG simulation")
		specFile = fs.String("spec", "", "JSON campaign spec file for the spec subcommand")
		cacheDir = fs.String("cache", "", "content-addressed result cache directory; repeated campaigns are served without re-simulation")
		workers  = fs.Int("workers", 0, "concurrent runs (0 = all CPU cores); results are worker-count independent")
		backend  = fs.String("backend", engine.DefaultBackend,
			"simulation backend for grid experiments: "+strings.Join(engine.Names(), ", "))
		server = fs.String("server", "",
			"dlsimd base URL; grid campaigns (hagerup, fig9, extension, csv, spec) execute remotely through the /v1 API")
	)
	fs.Parse(os.Args[2:])

	if *seed == refdata.Seed {
		return cliutil.Usagef("seed equals the pinned reference seed, so the runs would replay the reference dataset itself; choose another")
	}

	if *server != "" && *cacheDir != "" {
		return cliutil.Usagef("-cache is the local result store; the server manages its own (drop -cache with -server)")
	}
	store, err := cliutil.OpenStore(*cacheDir)
	if err != nil {
		return err
	}
	// The runner is where grid campaigns execute: in-process over the
	// local store by default, a remote dlsimd daemon with -server —
	// bit-identical results either way.
	runner, err := cliutil.NewRunner(*server, store, *workers)
	if err != nil {
		return err
	}

	// Subcommands streaming per-run metrics share one sink set; closeOut
	// is idempotent and deferred so a cancelled campaign still flushes
	// the partial output the pipeline delivered.
	openOut := func() ([]engine.Sink, func() error, error) { return cliutil.OpenOut(*out) }

	switch cmd {
	case "tss1":
		return runTzen(ctx, 1, *msg)
	case "tss2":
		return runTzen(ctx, 2, *msg)
	case "hagerup":
		sinks, closeOut, err := openOut()
		if err != nil {
			return err
		}
		defer closeOut()
		if _, err := runHagerup(ctx, *n, *runs, *seed, false, *backend, runner, sinks); err != nil {
			return err
		}
		return closeOut()
	case "fig9":
		sinks, closeOut, err := openOut()
		if err != nil {
			return err
		}
		defer closeOut()
		if err := runFig9(ctx, *runs, *seed, *backend, runner, sinks); err != nil {
			return err
		}
		return closeOut()
	case "tables":
		return printTables()
	case "verify":
		return runVerify(ctx, *runs, *seed)
	case "extension":
		return runExtension(ctx, *runs, *seed, *backend, runner)
	case "csv":
		dir := *out
		if dir == "" {
			dir = "rawdata"
		}
		return exportCSV(ctx, dir, *runs, *seed, *backend, runner)
	case "spec":
		if *specFile == "" {
			return cliutil.Usagef("spec: -spec FILE is required")
		}
		sinks, closeOut, err := openOut()
		if err != nil {
			return err
		}
		defer closeOut()
		if err := cliutil.RunSpecFile(ctx, *specFile, runner, sinks); err != nil {
			return err
		}
		return closeOut()
	case "all":
		if err := printTables(); err != nil {
			return err
		}
		if err := runTzen(ctx, 1, *msg); err != nil {
			return err
		}
		if err := runTzen(ctx, 2, *msg); err != nil {
			return err
		}
		for _, nn := range []int64{1024, 8192, 65536, 524288} {
			if _, err := runHagerup(ctx, nn, *runs, *seed, false, *backend, runner, nil); err != nil {
				return err
			}
		}
		return runFig9(ctx, *runs, *seed, *backend, runner, nil)
	default:
		usage()
		return cliutil.Usagef("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: repro {tss1|tss2|hagerup|fig9|tables|verify|extension|csv|spec|all} [flags]")
	fmt.Fprintln(os.Stderr, "run 'repro <subcommand> -h' for flags")
}

// runVerify runs the full verification-via-reproducibility pipeline
// (internal/core) and prints one verdict per artifact, as the paper's
// conclusion does: BOLD experiments reproduce, TSS experiments do not.
func runVerify(ctx context.Context, runs int, seed uint64) error {
	fmt.Println("\n=== Verification via reproducibility (paper methodology, internal/core) ===")
	fmt.Println()
	for exp := 1; exp <= 2; exp++ {
		report, err := core.VerifyTzen(ctx, exp)
		if err != nil {
			return err
		}
		fmt.Println(report.Summary())
		for _, c := range report.Checks {
			fmt.Printf("    %-12s sim %8.2f  ref %8.2f  (%+7.1f%%)  %s\n",
				c.Name, c.Simulated, c.Reference, c.Relative, c.Verdict)
		}
	}
	for _, n := range []int64{1024, 8192, 65536, 524288} {
		log.Printf("verifying Hagerup grid n=%d (%d runs per cell)...", n, runs)
		report, err := core.VerifyHagerup(ctx, n, runs, seed)
		if err != nil {
			return err
		}
		fmt.Println(report.Summary())
		for _, c := range report.Checks {
			// Per-cell lines only for the interesting (non-reproduced)
			// checks; the summary line covers the rest.
			if c.Verdict == core.Diverged || c.Verdict == core.Excluded {
				fmt.Printf("    %-14s sim %10.4g  ref %10.4g  (%+7.1f%%)  %s\n",
					c.Name, c.Simulated, c.Reference, c.Relative, c.Verdict)
			}
		}
	}
	if runs < 1000 {
		fmt.Printf("\nnote: %d runs per cell; heavy-tailed cells (GSS, FAC, BOLD at small p)\n", runs)
		fmt.Println("need the paper's 1000 runs for their means to stabilize inside the bound.")
	}
	fmt.Println("\nconclusion (as the paper's §VI): the BOLD-publication experiments")
	fmt.Println("reproduce, verifying the DLS implementation; the TSS-publication")
	fmt.Println("experiments do not (SS/GSS), for the systemic reasons given in §IV-A.")
	return nil
}

// runExtension executes the paper's §VI future work: the TAP/WF/AWF*/AF
// techniques on the Hagerup grid, plus the TSS publication's GSS(k) and
// CSS(k) parameter sweeps.
func runExtension(ctx context.Context, runs int, seed uint64, backend string, runner campaign.Executor) error {
	fmt.Println("\n=== Extension: future-work techniques (paper §VI) on the Hagerup grid ===")
	spec := experiment.FutureWorkSpec(seed)
	spec.Ns = []int64{8192}
	spec.Runs = runs
	spec.Backend = backend
	spec.Runner = runner
	log.Printf("future-work grid: n=8192, %d runs per cell...", runs)
	res, err := experiment.RunHagerup(ctx, spec)
	if err != nil {
		return err
	}
	var tb ascii.Table
	header := []string{"technique"}
	for _, p := range spec.Ps {
		header = append(header, fmt.Sprintf("p=%d", p))
	}
	tb.AddRow(header...)
	for _, tech := range spec.Techniques {
		row := []any{tech}
		for _, p := range spec.Ps {
			c, err := res.Cell(tech, 8192, p)
			if err != nil {
				return err
			}
			row = append(row, c.Wasted.Mean)
		}
		tb.AddRowf(row...)
	}
	os.Stdout.WriteString(tb.String())

	fmt.Println("\n=== Extension: GSS(k) sweep (TSS publication: k = 1, 2, 5, 10, 20, n/p) ===")
	gss, err := experiment.GSSSweep(ctx, 8192, 8, runs, 1, 0.5, seed)
	if err != nil {
		return err
	}
	var tb2 ascii.Table
	tb2.AddRow("k", "mean wasted [s]", "mean sched ops")
	for i, k := range gss.Ks {
		tb2.AddRowf(k, gss.Wasted[i], gss.Ops[i])
	}
	os.Stdout.WriteString(tb2.String())

	fmt.Println("\n=== Extension: CSS(k) chunk-size study (TSS publication, 100000 tasks, 72 PEs) ===")
	css, err := experiment.CSSSweep(ctx, 100000, 72, 110e-6, 5e-6, 200e-6)
	if err != nil {
		return err
	}
	var tb3 ascii.Table
	tb3.AddRow("k", "speedup (ideal 72)")
	for i, k := range css.Ks {
		tb3.AddRowf(k, css.Speedups[i])
	}
	os.Stdout.WriteString(tb3.String())
	fmt.Println("\nthe publication reports speedup 69.2 at k = n/p = 1388")
	return nil
}

// runTzen reproduces Figure 3 or 4: the reference curves (panel a) and
// the simulated curves (panel b).
func runTzen(ctx context.Context, exp int, useMSG bool) error {
	spec := experiment.TzenExperiment1()
	figure := 3
	if exp == 2 {
		spec = experiment.TzenExperiment2()
		figure = 4
	}
	spec.UseMSG = useMSG
	res, err := experiment.RunTzen(ctx, spec)
	if err != nil {
		return err
	}

	fmt.Printf("\n=== Figure %da: values from the original publication [12] (%s) ===\n\n", figure, spec.Name)
	var refSeries []ascii.Series
	for _, label := range refdata.TzenLabels(exp) {
		ys, _ := refdata.TzenSpeedup(exp, label)
		xs := make([]float64, len(refdata.TzenPs))
		for i, p := range refdata.TzenPs {
			xs[i] = float64(p)
		}
		refSeries = append(refSeries, ascii.Series{Label: label, X: xs, Y: ys})
	}
	fmt.Println(ascii.Plot(ascii.PlotConfig{XLabel: "number PEs", YLabel: "Speedup"}, refSeries...))

	fmt.Printf("\n=== Figure %db: values from the present simulation ===\n\n", figure)
	var simSeries []ascii.Series
	var tb ascii.Table
	header := []string{"p"}
	for _, c := range spec.Curves {
		header = append(header, c.Label)
	}
	tb.AddRow(header...)
	for i, p := range spec.Ps {
		row := []any{p}
		for _, c := range spec.Curves {
			row = append(row, res.Curves[c.Label][i].Speedup)
		}
		tb.AddRowf(row...)
	}
	for _, c := range spec.Curves {
		var xs, ys []float64
		for _, pt := range res.Curves[c.Label] {
			xs = append(xs, float64(pt.P))
			ys = append(ys, pt.Speedup)
		}
		simSeries = append(simSeries, ascii.Series{Label: c.Label, X: xs, Y: ys})
	}
	fmt.Println(ascii.Plot(ascii.PlotConfig{XLabel: "number PEs", YLabel: "Speedup"}, simSeries...))
	fmt.Println(tb.String())
	fmt.Println(tzenVerdict(exp, res))
	return nil
}

// tzenVerdict states the paper's §IV-A conclusion for the experiment:
// CSS/TSS reproduce, SS/GSS diverge.
func tzenVerdict(exp int, res *experiment.TzenResult) string {
	last := len(refdata.TzenPs) - 1
	verdict := "reproducibility per technique (at p=80, vs. digitized reference):\n"
	for _, label := range refdata.TzenLabels(exp) {
		ref, _ := refdata.TzenSpeedup(exp, label)
		simV := res.Curves[label][last].Speedup
		rd := metrics.RelativeDiscrepancy(simV, ref[last])
		status := "MATCHES"
		if math.Abs(rd) > core.TzenTolerancePct {
			status = "DIVERGES (as in the paper for SS/GSS)"
		}
		verdict += fmt.Sprintf("  %-8s sim %6.1f vs ref %6.1f  (%+6.1f%%)  %s\n", label, simV, ref[last], rd, status)
	}
	return verdict
}

// runHagerup reproduces one of Figures 5–8: panels (a) reference values,
// (b) simulation values, (c) discrepancy, (d) relative discrepancy.
func runHagerup(ctx context.Context, n int64, runs int, seed uint64, keepPerRun bool, backend string, runner campaign.Executor, sinks []engine.Sink) (*experiment.HagerupResult, error) {
	figure := map[int64]int{1024: 5, 8192: 6, 65536: 7, 524288: 8}[n]
	if figure == 0 {
		return nil, cliutil.Usagef("hagerup: n must be one of 1024, 8192, 65536, 524288 (Table III); got %d", n)
	}
	spec := experiment.HagerupGrid(seed)
	spec.Ns = []int64{n}
	spec.Runs = runs
	spec.KeepPerRun = keepPerRun
	spec.Backend = backend
	spec.Runner = runner
	spec.Sinks = sinks
	log.Printf("Figure %d: %d tasks, %d runs per cell...", figure, n, runs)
	res, err := experiment.RunHagerup(ctx, spec)
	if err != nil {
		return nil, err
	}

	ps := spec.Ps
	fmt.Printf("\n=== Figure %da: %d tasks — values from original publication [14] (pinned reference) ===\n\n", figure, n)
	printWastedTable(ps, func(tech string, p int) float64 {
		v, _ := refdata.Wasted(tech, n, p)
		return v
	})
	fmt.Printf("\n=== Figure %db: %d tasks — values from the present simulation ===\n\n", figure, n)
	printWastedTable(ps, func(tech string, p int) float64 {
		c, _ := res.Cell(tech, n, p)
		return c.Wasted.Mean
	})

	var plotSeries []ascii.Series
	for _, tech := range spec.Techniques {
		_, means, _ := res.Series(tech, n)
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = float64(p)
		}
		plotSeries = append(plotSeries, ascii.Series{Label: tech, X: xs, Y: means})
	}
	fmt.Println(ascii.Plot(ascii.PlotConfig{
		XLabel: "number of PEs",
		YLabel: "avg of avg wasted time over runs [s], log scale",
		LogY:   true,
	}, plotSeries...))

	fmt.Printf("\n=== Figure %dc: discrepancy simulation - publication [s] ===\n\n", figure)
	printWastedTable(ps, func(tech string, p int) float64 {
		c, _ := res.Cell(tech, n, p)
		ref, _ := refdata.Wasted(tech, n, p)
		return metrics.Discrepancy(c.Wasted.Mean, ref)
	})
	fmt.Printf("\n=== Figure %dd: relative discrepancy [%%] ===\n\n", figure)
	var maxRel float64
	printWastedTable(ps, func(tech string, p int) float64 {
		c, _ := res.Cell(tech, n, p)
		ref, _ := refdata.Wasted(tech, n, p)
		rd := metrics.RelativeDiscrepancy(c.Wasted.Mean, ref)
		// Track the maximum excluding the FAC/2-PE outlier, as §IV-B4.
		if a := math.Abs(rd); !core.ExcludeFACOutlier(tech, p) && a > maxRel {
			maxRel = a
		}
		return rd
	})
	fmt.Printf("max |relative discrepancy| excluding FAC/2-PE outlier: %.2f%%\n", maxRel)
	return res, nil
}

func printWastedTable(ps []int, value func(tech string, p int) float64) {
	var tb ascii.Table
	header := []string{"technique"}
	for _, p := range ps {
		header = append(header, fmt.Sprintf("p=%d", p))
	}
	tb.AddRow(header...)
	for _, tech := range sched.VerifiedNames() {
		row := []any{tech}
		for _, p := range ps {
			row = append(row, value(tech, p))
		}
		tb.AddRowf(row...)
	}
	os.Stdout.WriteString(tb.String())
}

// runFig9 reproduces Figure 9: the average wasted time of each run of
// FAC with 2 workers and 524,288 tasks, plus the outlier analysis of
// §IV-B4.
func runFig9(ctx context.Context, runs int, seed uint64, backend string, runner campaign.Executor, sinks []engine.Sink) error {
	log.Printf("Figure 9: FAC, 2 PEs, 524288 tasks, %d runs...", runs)
	spec := experiment.HagerupGrid(seed)
	spec.Techniques = []string{"FAC"}
	spec.Ns = []int64{524288}
	spec.Ps = []int{2}
	spec.Runs = runs
	spec.KeepPerRun = true
	spec.Backend = backend
	spec.Runner = runner
	spec.Sinks = sinks
	res, err := experiment.RunHagerup(ctx, spec)
	if err != nil {
		return err
	}
	c, _ := res.Cell("FAC", 524288, 2)

	fmt.Printf("\n=== Figure 9: average wasted time for each of the %d runs of FAC (2 workers, 524288 tasks) ===\n\n", runs)
	var xs, ys []float64
	for i, v := range c.PerRun {
		xs = append(xs, float64(i))
		ys = append(ys, v)
	}
	fmt.Println(ascii.Plot(ascii.PlotConfig{
		XLabel: "number run", YLabel: "average wasted time [s]",
	}, ascii.Series{Label: "FAC", X: xs, Y: ys}))
	fmt.Println("distribution of per-run values:")
	fmt.Println(ascii.Histogram(c.PerRun, 12, 50))

	kept, excluded := metrics.TrimAbove(c.PerRun, 400)
	fmt.Printf("mean over all runs:           %.4g s\n", c.Wasted.Mean)
	fmt.Printf("runs above 400 s:             %d (%.2f%% of all runs; paper: 15 = 1.5%%)\n",
		excluded, 100*float64(excluded)/float64(len(c.PerRun)))
	fmt.Printf("mean excluding those runs:    %.4g s (paper: 25.82 s)\n", metrics.Mean(kept))
	return nil
}

// printTables reproduces Tables II (required parameters) and III
// (experiment overview).
func printTables() error {
	fmt.Println("\n=== Table II: required parameters for the DLS techniques ===")
	fmt.Println()
	params := []sched.Param{sched.ParamP, sched.ParamN, sched.ParamR, sched.ParamH,
		sched.ParamMu, sched.ParamSigma, sched.ParamF, sched.ParamL, sched.ParamM}
	var tb ascii.Table
	header := []string{"DLS"}
	for _, p := range params {
		header = append(header, string(p))
	}
	tb.AddRow(header...)
	for _, tech := range []string{"STAT", "SS", "FSC", "GSS", "TSS", "FAC", "FAC2", "BOLD"} {
		req, err := sched.Requirements(tech)
		if err != nil {
			return err
		}
		set := map[sched.Param]bool{}
		for _, r := range req {
			set[r] = true
		}
		row := []string{tech}
		for _, p := range params {
			mark := ""
			if set[p] {
				mark = "X"
			}
			row = append(row, mark)
		}
		tb.AddRow(row...)
	}
	os.Stdout.WriteString(tb.String())

	fmt.Println("\n=== Table III: overview of reproducibility experiments ===")
	fmt.Println()
	grid := experiment.HagerupGrid(0)
	var tb2 ascii.Table
	tb2.AddRow("number of tasks", "number of PEs", "figure")
	for i, n := range grid.Ns {
		tb2.AddRowf(n, fmt.Sprintf("%v", grid.Ps), fmt.Sprintf("Figure %d", 5+i))
	}
	os.Stdout.WriteString(tb2.String())
	fmt.Printf("\nper cell: %d runs, exponential task times (mu=%g s, sigma=%g s), h=%g s\n",
		grid.Runs, grid.Mu, grid.Mu, grid.H)
	return nil
}

// exportCSV writes the raw data of all experiments (paper §V).
func exportCSV(ctx context.Context, dir string, runs int, seed uint64, backend string, runner campaign.Executor) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return err
		}
		log.Printf("wrote %s", path)
		return nil
	}

	spec := experiment.HagerupGrid(seed)
	spec.Runs = runs
	spec.Backend = backend
	spec.Runner = runner
	res, err := experiment.RunHagerup(ctx, spec)
	if err != nil {
		return err
	}
	if err := write("hagerup_grid.csv", func(f *os.File) error {
		return experiment.WriteHagerupCSV(f, res)
	}); err != nil {
		return err
	}

	f9 := experiment.HagerupGrid(seed)
	f9.Techniques = []string{"FAC"}
	f9.Ns = []int64{524288}
	f9.Ps = []int{2}
	f9.Runs = runs
	f9.KeepPerRun = true
	f9.Backend = backend
	f9.Runner = runner
	r9, err := experiment.RunHagerup(ctx, f9)
	if err != nil {
		return err
	}
	c9, _ := r9.Cell("FAC", 524288, 2)
	if err := write("fig9_fac_per_run.csv", func(f *os.File) error {
		return experiment.WritePerRunCSV(f, c9)
	}); err != nil {
		return err
	}

	for i, spec := range []experiment.TzenSpec{experiment.TzenExperiment1(), experiment.TzenExperiment2()} {
		tres, err := experiment.RunTzen(ctx, spec)
		if err != nil {
			return err
		}
		if err := write(fmt.Sprintf("tzen_experiment%d.csv", i+1), func(f *os.File) error {
			return experiment.WriteTzenCSV(f, tres)
		}); err != nil {
			return err
		}
	}
	return nil
}
