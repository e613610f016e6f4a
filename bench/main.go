// Command bench is the repository's benchmark: four workloads grounded
// in the paper's experiments and the system built around them, each
// checked for correct output on every run. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) prints the per-layer
// metrics and writes its spans to a file. See README.md for the
// workloads, the metrics and how they relate.
//
//	bash bench/run.sh                                    # every workload, default seed
//	bash bench/run.sh -workload fleet-ticks -seed 7 -seconds 15 -trace 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// The workloads, in the order a full run executes them. Why each
// exists is recorded in BENCHMARK.json and README.md.
var workloads = []workloadDef{
	{"hagerup-grid", setupHagerup},
	{"perrun-export", setupPerrun},
	{"tzen-msg", setupTzen},
	{"fleet-ticks", setupFleet},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_rel", "x"},
	{"alloc_bytes_per_run", "B/run"},
}

// perLayer are the metrics a traced run reports, on every workload:
// measured in the workload's own traced window, 0 where the workload
// leaves a layer idle, except sched.ns_per_op.* and two engine stages
// timed by the unit-cost probes.
var perLayer = []metricDef{
	{"sched.ops", "count"},
	{"sched.ns_per_op.STAT", "ns"},
	{"sched.ns_per_op.SS", "ns"},
	{"sched.ns_per_op.FSC", "ns"},
	{"sched.ns_per_op.GSS", "ns"},
	{"sched.ns_per_op.TSS", "ns"},
	{"sched.ns_per_op.FAC", "ns"},
	{"sched.ns_per_op.FAC2", "ns"},
	{"sched.ns_per_op.BOLD", "ns"},
	{"sim.runs", "count"},
	{"sim.busy_frac", "frac"},
	{"sim.ns_per_op", "ns"},
	{"msg.runs", "count"},
	{"msg.busy_frac", "frac"},
	{"msg.ns_per_op", "ns"},
	{"engine.overhead_frac", "frac"},
	{"engine.sink_busy_frac", "frac"},
	{"engine.sink_wait_frac", "frac"},
	{"engine.jsonl_bytes", "B"},
	{"engine.jsonl_ns_per_run", "ns"},
	{"engine.aggregate_ns_per_run", "ns"},
	{"engine.replay_ns_per_run", "ns"},
	{"cache.gets", "count"},
	{"cache.hit_ratio", "frac"},
	{"cache.puts", "count"},
	{"cache.put_bytes", "B"},
	{"cache.self_frac", "frac"},
	{"cache.get_ms_p50", "ms"},
	{"cache.put_ms_p50", "ms"},
	{"jobs.count", "count"},
	{"jobs.queue_frac", "frac"},
	{"jobs.exec_frac.hit", "frac"},
	{"jobs.exec_frac.miss", "frac"},
	{"service.requests", "count"},
	{"service.errors", "count"},
	{"service.self_frac", "frac"},
	{"client.attempts", "count"},
	{"client.failed_attempts", "count"},
	{"client.self_frac", "frac"},
	{"distrib.node_share.b", "frac"},
	{"distrib.shard_retries", "count"},
	{"distrib.self_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// setupReps is how many times an untraced run sets its workload up to
// report the median set-up time.
const setupReps = 9

type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string // traced runs: span file; "" derives one per workload
	scale    int
	tmp      string
	pins     map[string]string
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var (
		name     = flag.String("workload", "", "workload to run; empty runs every one")
		seed     = flag.Uint64("seed", pins.DefaultSeed, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 15, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		traceOut = flag.String("trace-out", "", "traced runs: file the spans are written to (default .bench_build/trace-<workload>.json)")
		scale    = flag.Int("scale", 1, "divide every run count by this factor (quick looks; no paper checks)")
		pinsOut  = flag.Bool("print-pins", false, "print the reference digests of -seed as pinned.json entries instead of measuring")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 || *scale < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1, -scale at least 1, -seconds positive")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, wl := range workloads {
			if wl.name == *name {
				selected = []workloadDef{wl}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut,
		scale: *scale, tmp: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())), pins: pins.Digests}
	if *pinsOut {
		refs, err := referenceDigests(ctx, selected, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		doc, err := json.MarshalIndent(refs, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(doc))
		return
	}
	code := 0
	for _, wl := range selected {
		res, err := run(ctx, wl, o, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			code = 1
			break
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			code = 1
			break
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

// run sets one workload up, measures it and checks its output. It
// prints what a reader needs to interpret the metrics to out and
// returns the result line; an error means no result could be produced.
func run(ctx context.Context, wl workloadDef, o options, out io.Writer) (result, error) {
	e := env{seed: o.seed, scale: o.scale, workers: runtime.NumCPU(),
		tmp: filepath.Join(o.tmp, wl.name), pins: o.pins, refs: make(map[string]string)}
	defer os.RemoveAll(o.tmp) // scratch data only
	fmt.Fprintf(out, "workload %s: seed %d, scale %d, num_cpu %d, engine workers %d, window %gs, traced %v\n",
		wl.name, o.seed, o.scale, runtime.NumCPU(), e.workers, o.seconds, o.trace)

	reps := setupReps
	if o.trace {
		reps = 1 // the traced run reports no set-up time
	}
	inst, setupS, err := setupTimed(ctx, wl, e, reps)
	if err != nil {
		return result{}, err
	}
	w, problems, failed, err := window1(ctx, inst, o.seconds)
	inst.close()
	if err != nil {
		return result{}, err
	}
	printWindow(out, wl.name, w, inst)
	res := result{Attempted: w.ops, Failed: failed, Metrics: make(map[string]metricVal)}
	if !o.trace {
		res.Metrics["setup_s"] = metricVal{setupS, "s"}
		res.Metrics["wall_rel"] = metricVal{median(w.rel), "x"}
		res.Metrics["alloc_bytes_per_run"] = metricVal{frac(float64(w.alloc), float64(w.runs)), "B/run"}
	} else {
		layers, tw, tproblems, tfailed, err := traced(ctx, wl, e, o, out)
		if err != nil {
			return result{}, err
		}
		printWindow(out, wl.name+" (traced)", tw, nil)
		problems = append(problems, tproblems...)
		res.Attempted += tw.ops
		res.Failed += tfailed
		layers["trace.overhead_frac"] = median(tw.rel)/median(w.rel) - 1
		for _, d := range perLayer {
			res.Metrics[d.name] = metricVal{layers[d.name], d.unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(out, "FAIL:", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %-14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// referenceDigests runs one pass over each workload — every slice once —
// and returns the reference digests its outputs were checked against,
// keyed as in pinned.json. Committing them as pins lets runs on that
// seed skip computing references; they must be regenerated whenever a
// workload's output changes on purpose.
func referenceDigests(ctx context.Context, wls []workloadDef, o options) (map[string]string, error) {
	refs := make(map[string]string)
	defer os.RemoveAll(o.tmp) // scratch data only
	for _, wl := range wls {
		e := env{seed: o.seed, scale: o.scale, workers: runtime.NumCPU(),
			tmp: filepath.Join(o.tmp, wl.name), refs: refs}
		inst, err := wl.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		rounds := 1
		if s, ok := inst.(interface{ slices() int }); ok {
			rounds = s.slices()
		}
		for i := 0; i < rounds && err == nil; i++ {
			_, err = inst.round(ctx)
		}
		var failed int
		var problems []string
		if err == nil {
			failed, problems, err = inst.verify(ctx)
		}
		inst.close()
		if err == nil && failed > 0 {
			err = fmt.Errorf("%d failed checks: %v", failed, problems)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	return refs, nil
}

// window1 measures one window on inst and verifies its output. A round
// that failed ends the window early; the failure is counted, not
// returned, so the run still reports what it measured.
func window1(ctx context.Context, inst instance, seconds float64) (window, []string, int, error) {
	w, err := measure(ctx, inst, seconds)
	var problems []string
	if err != nil {
		if ctx.Err() != nil {
			return w, nil, 0, err
		}
		problems = append(problems, err.Error())
	}
	failed, vproblems, err := inst.verify(ctx)
	if err != nil {
		return w, nil, 0, err
	}
	return w, append(problems, vproblems...), w.failed + failed, nil
}

// traced runs the traced window: the workload set up again with its
// layer wrappers, measured for the same length, then the unit-cost
// probes. Spans are written to the trace file.
func traced(ctx context.Context, wl workloadDef, e env, o options, out io.Writer) (map[string]float64, window, []string, int, error) {
	e.tr = NewTracer()
	inst, _, err := setupTimed(ctx, wl, e, 1)
	if err != nil {
		return nil, window{}, nil, 0, err
	}
	defer inst.close()
	e.tr.Reset()
	w, problems, failed, err := window1(ctx, inst, o.seconds)
	if err != nil {
		return nil, w, nil, 0, err
	}
	layers, err := inst.layers(w)
	if err != nil {
		return nil, w, nil, 0, err
	}
	probes, err := probe(ctx)
	if err != nil {
		return nil, w, nil, 0, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		layers[k] = v
	}
	path := o.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+wl.name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, w, nil, 0, err
	}
	spans := e.tr.Spans()
	header := map[string]any{"workload": wl.name, "seed": o.seed, "scale": o.scale,
		"num_cpu": runtime.NumCPU(), "workers": e.workers, "window_s": w.dur.Seconds()}
	if err := writeTrace(path, header, spans); err != nil {
		return nil, w, nil, 0, err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", len(spans), path)
	printSelfTimes(out, spans)
	return layers, w, problems, failed, nil
}

// latencyReporter is an instance whose operations are individually
// timed campaigns: each spec's first submission and its second.
type latencyReporter interface {
	campaignLatencies() (first, second []float64)
}

// printWindow prints the window's round times, yardstick times and their
// ratios and, for the fleet, the campaign latency distribution — of all
// campaigns, of first and of second submissions — with its sample
// counts.
func printWindow(out io.Writer, name string, w window, inst instance) {
	q1, q3, _ := quartiles(w.rounds)
	fmt.Fprintf(out, "%s: %d rounds in %.2fs, round median %.4gs (quartiles %.4g..%.4g), %d runs, %d ops, %d failed\n",
		name, len(w.rounds), w.dur.Seconds(), median(w.rounds), q1, q3, w.runs, w.ops, w.failed)
	q1, q3, _ = quartiles(w.rel)
	fmt.Fprintf(out, "%s: yardstick median %.4gs; round over yardstick median %.4g (quartiles %.4g..%.4g)\n",
		name, median(w.yard), median(w.rel), q1, q3)
	lr, ok := inst.(latencyReporter)
	if !ok {
		return
	}
	first, second := lr.campaignLatencies()
	for _, class := range []struct {
		name string
		s    []float64
	}{{"all", append(append([]float64(nil), first...), second...)}, {"first-tick", first}, {"second-tick", second}} {
		ms := make([]float64, len(class.s))
		for i, v := range class.s {
			ms[i] = v * 1e3
		}
		fmt.Fprintf(out, "%s: %s campaign latency p50 %.4gms over %d campaigns", name, class.name, median(ms), len(ms))
		if t, ok := tail(ms); ok {
			fmt.Fprintf(out, "; p%g %.4gms (%d of %d samples beyond)\n", t.Percentile, t.Value, t.Beyond, t.Samples)
		} else {
			fmt.Fprintf(out, "; no tail percentile has %d samples beyond it\n", minBeyond)
		}
	}
}

// printSelfTimes prints each span name's count, total and self time —
// where a traced window's time went.
func printSelfTimes(out io.Writer, spans []Span) {
	self := selfTimes(spans)
	type row struct {
		n           int
		total, self int64
	}
	rows := make(map[string]*row)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.Dur()
		r.self += self[s.ID]
	}
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  %-20s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, k := range names {
		r := rows[k]
		fmt.Fprintf(out, "  %-20s %8d %12.1f %12.1f\n", k, r.n, float64(r.total)/1e6, float64(r.self)/1e6)
	}
}
