package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/campaign"
	"repro/campaign/distrib"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fleet-ticks is the only workload through distrib, client, service,
// jobs and cache. One client runs a closed loop of campaigns through a
// coordinator over two in-process dlsimd nodes on loopback that share
// one on-disk result store. Each campaign is the spec cmd/benchtraj pins
// ({FAC2, GSS} × 4096 × 8 × 250) under a seed drawn from the workload
// seed. A round submits 16 new specs twice, as the first two ticks of
// recurring schedules do: the first tick misses the store (simulate,
// encode, store), the second hits it (read, decode, replay), as every
// tick after the first does. Both ends of the hit ratio run in every
// round and the trace splits job time into hits and misses, so a gain on
// one path that costs the other shows.
//
// Node b sits behind a fixed 5 ms latency on job submission. The value
// is synthetic, not measured on any deployment: it makes one node slow
// so that a campaign waits on its slowest shard, the setting in which a
// self-scheduling coordinator must beat the static shard plan.

const (
	fleetName  = "fleet-ticks"
	fleetBlock = 16 // new specs per round, each submitted twice
	fleetReps  = 250
	slowLink   = 5 * time.Millisecond

	fleetSalt = 0x666c656574 // separates the campaign stream from other seed uses
)

func fleetSpec(seed uint64, reps int, backend string) campaign.Spec {
	return campaign.Spec{
		Backend:      backend,
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{4096},
		Ps:           []int{8},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         seed,
	}
}

type fleetNode struct {
	name    string
	mgr     *jobs.Manager
	srv     *http.Server
	served  chan struct{} // closed when Serve returns
	hc      *http.Client
	handler *tracedHandler // traced runs only
	doer    *tracedDoer    // traced runs only
}

// tick is one campaign submission: a spec's seed, and whether the spec
// was submitted before (and so is stored).
type tick struct {
	seed   uint64
	second bool
}

// campaignOut is one campaign's output, checked after the window.
type campaignOut struct {
	seed   uint64
	digest string
	err    error
}

// fleetCounts are the traced wrappers' counters at one instant.
type fleetCounts struct {
	gets, hits, puts, putBytes int64
	attempts, failedAttempts   int64
	requests, errors           int64
	retries                    int64
}

type fleetRun struct {
	e       env
	dir     string
	backend string
	reps    int
	store   *tracedStore // traced runs only
	nodes   []*fleetNode
	coord   *distrib.Coordinator
	reg     *telemetry.Registry

	gen  *rng.SplitMix64
	seen map[uint64]bool // every seed handed out so far

	outs      []campaignOut
	latencies [2][]float64 // seconds per campaign, first and second ticks
	// Traced runs: the wrappers' counters when the window began and after
	// its first round, with the tracer clock at both instants, and the
	// result-stream bytes the first round received.
	base, first     *fleetCounts
	since, firstEnd int64
	firstBytes      int64
}

// setupFleet starts the fleet and runs one round as a warm-up.
func setupFleet(ctx context.Context, e env) (instance, error) {
	f := &fleetRun{
		e:    e,
		dir:  filepath.Join(e.tmp, "fleet"),
		reps: max(2, fleetReps/e.scale),
		reg:  telemetry.NewRegistry(),
		gen:  rng.NewSplitMix64(rng.Mix64(e.seed ^ fleetSalt)),
		seen: make(map[uint64]bool),
	}
	if err := f.start(); err != nil {
		f.close()
		return nil, err
	}
	for _, t := range f.nextRound() {
		if _, _, err := f.runCampaign(ctx, t.seed, 0); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// start brings up the two nodes, their SDK clients and the coordinator.
func (f *fleetRun) start() error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	disk, err := cache.NewDisk(filepath.Join(f.dir, "cache"))
	if err != nil {
		return err
	}
	var store cache.Store = disk
	if f.e.tr != nil {
		f.backend = tracedSimName
		f.store = &tracedStore{inner: disk, tr: f.e.tr}
		store = f.store
	}
	slow, err := chaos.NewEngine(f.e.seed, chaos.Rule{Name: "slow-link", Method: http.MethodPost,
		Path: "/v1/jobs", Fault: chaos.FaultLatency, P: 1, Latency: chaos.Duration(slowLink)})
	if err != nil {
		return err
	}
	var runners []campaign.Runner
	for _, name := range []string{"a", "b"} {
		n := &fleetNode{name: name, served: make(chan struct{})}
		f.nodes = append(f.nodes, n)
		n.mgr = jobs.NewManager(jobs.Config{Workers: 1, Concurrency: 1, Store: store})
		var h http.Handler = service.New(n.mgr).Handler()
		if f.e.tr != nil {
			n.handler = &tracedHandler{next: h, tr: f.e.tr, node: name}
			h = n.handler
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			close(n.served)
			return err
		}
		n.srv = &http.Server{Handler: h}
		go func() {
			defer close(n.served)
			_ = n.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}()
		// One connection per node keeps the client within nproc = 2
		// connections; the coordinator never has two calls in flight
		// against one node in this workload.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxConnsPerHost = 1
		n.hc = &http.Client{Transport: tr}
		var d client.Doer = n.hc
		if name == "b" {
			d = &chaos.Injector{Next: d, Engine: slow}
		}
		if f.e.tr != nil {
			n.doer = &tracedDoer{next: d, tr: f.e.tr, node: name}
			d = n.doer
		}
		c, err := client.New("http://"+ln.Addr().String(),
			client.WithOptions(client.Options{Retry: client.DefaultRetry}), client.WithDoer(d))
		if err != nil {
			return err
		}
		runners = append(runners, c)
	}
	f.coord, err = distrib.New(runners, distrib.Options{Shards: 2, Registry: f.reg})
	return err
}

// freshSeed draws a campaign seed never handed out before, so a fresh
// campaign is always a cache miss.
func (f *fleetRun) freshSeed() uint64 {
	for {
		s := f.gen.Next()
		if !f.seen[s] {
			f.seen[s] = true
			return s
		}
	}
}

// nextRound draws one round's campaigns: fleetBlock fresh seeds, then
// the same seeds again in a seeded order.
func (f *fleetRun) nextRound() []tick {
	ticks := make([]tick, 2*fleetBlock)
	for i := 0; i < fleetBlock; i++ {
		s := f.freshSeed()
		ticks[i], ticks[fleetBlock+i] = tick{seed: s}, tick{seed: s, second: true}
	}
	again := ticks[fleetBlock:]
	for i := len(again) - 1; i > 0; i-- {
		j := int(f.gen.Next() % uint64(i+1))
		again[i], again[j] = again[j], again[i]
	}
	return ticks
}

// runCampaign runs one campaign through the coordinator and returns the
// digest and length of its merged JSONL result stream. req, when
// non-zero, is the campaign's request id in the trace.
func (f *fleetRun) runCampaign(ctx context.Context, seed uint64, req int64) (string, int64, error) {
	hw := newHashWriter()
	var span Span
	if f.e.tr != nil && req != 0 {
		span = Span{ID: f.e.tr.ID(), Req: req, Name: "distrib.campaign", Start: f.e.tr.now()}
		ctx = withSpan(ctx, span.ID, req)
	}
	_, err := campaign.Run(ctx, f.coord, fleetSpec(seed, f.reps, f.backend), campaign.NewJSONLSink(hw))
	if span.ID != 0 {
		span.End = f.e.tr.now()
		f.e.tr.Add(span)
	}
	return hw.sum(), hw.n, err
}

func (f *fleetRun) round(ctx context.Context) (roundOut, error) {
	firstRound := f.e.tr != nil && f.base == nil
	if firstRound {
		c, err := f.counts()
		if err != nil {
			return roundOut{}, err
		}
		f.base, f.since = &c, f.e.tr.now()
	}
	var out roundOut
	for _, t := range f.nextRound() {
		start := time.Now()
		digest, n, err := f.runCampaign(ctx, t.seed, int64(len(f.outs)+1))
		lat := &f.latencies[0]
		if t.second {
			lat = &f.latencies[1]
		}
		*lat = append(*lat, time.Since(start).Seconds())
		f.outs = append(f.outs, campaignOut{seed: t.seed, digest: digest, err: err})
		out.ops++
		if err != nil {
			out.failed++
			continue
		}
		out.runs += int64(2 * f.reps)
		if firstRound {
			f.firstBytes += n
		}
	}
	if firstRound {
		c, err := f.counts()
		if err != nil {
			return roundOut{}, err
		}
		f.first, f.firstEnd = &c, f.e.tr.now()
	}
	return out, nil
}

// verify checks every campaign's stream — both ticks of a spec — against
// one local execution of the spec, and, for a pinned seed, the local
// streams of the first round's specs against their pin.
func (f *fleetRun) verify(ctx context.Context) (int, []string, error) {
	refs := make(map[uint64]string)
	ref := func(seed uint64) (string, error) {
		if d, ok := refs[seed]; ok {
			return d, nil
		}
		d, _, err := exportJSONL(ctx, fleetSpec(seed, f.reps, ""), f.e.workers, nil)
		refs[seed] = d
		return d, err
	}
	if len(f.outs) >= fleetBlock {
		h := newFloatHasher()
		for _, o := range f.outs[:fleetBlock] {
			d, err := ref(o.seed)
			if err != nil {
				return 0, nil, err
			}
			h.str(d)
		}
		got := h.sum()
		f.e.remember(fleetName, f.e.seed, 0, got)
		if want, ok := f.e.pin(fleetName, f.e.seed, 0); ok && got != want {
			// The local reference itself is wrong: no campaign can be
			// judged against it.
			return len(f.outs), []string{fmt.Sprintf("%s: first-round reference digest %s, want %s", fleetName, got, want)}, nil
		}
	}
	var failed int
	var problems []string
	for i, o := range f.outs {
		if o.err != nil {
			problems = append(problems, fmt.Sprintf("%s campaign %d: %v", fleetName, i, o.err))
			continue // counted as failed when it ran
		}
		want, err := ref(o.seed)
		if err != nil {
			return 0, nil, err
		}
		if o.digest != want {
			failed++
			problems = append(problems, fmt.Sprintf("%s campaign %d (seed %d): digest %s, want %s", fleetName, i, o.seed, o.digest, want))
		}
	}
	return failed, problems, nil
}

func (f *fleetRun) close() {
	if f.coord != nil {
		_ = f.coord.Close() // stops no background work in this configuration
	}
	for _, n := range f.nodes {
		if n.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = n.srv.Shutdown(ctx) // a timeout leaves nothing to clean up that Close would
			cancel()
			_ = n.srv.Close()
		}
		<-n.served
		if n.hc != nil {
			n.hc.CloseIdleConnections()
		}
		n.mgr.Close()
	}
	_ = os.RemoveAll(f.dir) // scratch data; a leftover is removed with the run's directory
}

// counts reads the traced wrappers' counters.
func (f *fleetRun) counts() (fleetCounts, error) {
	c := fleetCounts{
		gets: f.store.gets.Load(), hits: f.store.hits.Load(),
		puts: f.store.puts.Load(), putBytes: f.store.putBytes.Load(),
	}
	for _, n := range f.nodes {
		c.attempts += n.doer.attempts.Load()
		c.failedAttempts += n.doer.failed.Load()
		c.requests += n.handler.requests.Load()
		c.errors += n.handler.errors.Load()
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	f.reg.WriteTo(bw)
	if err := bw.Flush(); err != nil {
		return c, err
	}
	exp, err := telemetry.Parse(buf.Bytes())
	if err != nil {
		return c, fmt.Errorf("fleet metrics: %w", err)
	}
	retries, ok := exp.Value("dlsim_fleet_shard_retries_total", nil)
	if !ok {
		return c, errors.New("fleet metrics: no dlsim_fleet_shard_retries_total")
	}
	c.retries = int64(retries)
	return c, nil
}

// campaignLatencies implements latencyReporter.
func (f *fleetRun) campaignLatencies() (first, second []float64) {
	return f.latencies[0], f.latencies[1]
}

// layers reports the window's fleet layers. Counts are the first
// round's, whose campaigns are the same in every run with the same
// seed; fractions are shares of the whole window's campaign time.
func (f *fleetRun) layers(w window) (map[string]float64, error) {
	if f.first == nil {
		return nil, fmt.Errorf("%s: no round completed", fleetName)
	}
	// The trace file gets the job spans and the attributions too.
	spans := append(f.e.tr.Spans(), f.jobSpans()...)
	missed := attributeCacheSpans(spans)
	f.e.tr.replace(spans)
	self := selfTimes(spans)

	// Self times are summed over both nodes, so layers working in
	// parallel can add up to more than the campaign time they share.
	var campaignNs, execNs, firstJobs int64
	var getMs, putMs []float64
	sums := make(map[string]int64)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		switch s.Name {
		case "cache.get":
			getMs = append(getMs, float64(s.Dur())/1e6)
		case "cache.put":
			putMs = append(putMs, float64(s.Dur())/1e6)
		}
		switch {
		case s.Name == "distrib.campaign":
			campaignNs += s.Dur()
			sums["distrib.self_frac"] += self[s.ID]
		case layer == "client" || layer == "service" || layer == "cache":
			sums[layer+".self_frac"] += self[s.ID]
		case s.Name == "jobs.queue":
			sums["jobs.queue_frac"] += self[s.ID]
			if s.Start < f.firstEnd {
				firstJobs++
			}
		case s.Name == "jobs.exec":
			execNs += s.Dur()
			if missed[s.ID] {
				sums["jobs.exec_frac.miss"] += self[s.ID]
			} else {
				sums["jobs.exec_frac.hit"] += self[s.ID]
			}
		}
	}
	var runsB, runsAll int64
	for _, n := range f.nodes {
		for _, snap := range n.mgr.List() {
			if f.inWindow(snap) {
				runsAll += snap.Total
				if n.name == "b" {
					runsB += snap.Total
				}
			}
		}
	}
	m := simLayers(w, len(f.nodes), nil) // one engine worker per node
	for k, v := range sums {
		m[k] = frac(float64(v), float64(campaignNs))
	}
	c, b := f.first, f.base
	m["engine.overhead_frac"] = 1 - frac(float64(w.sim.busyNs), float64(execNs))
	m["engine.jsonl_bytes"] = float64(f.firstBytes)
	m["cache.gets"] = float64(c.gets - b.gets)
	m["cache.hit_ratio"] = frac(float64(c.hits-b.hits), float64(c.gets-b.gets))
	m["cache.puts"] = float64(c.puts - b.puts)
	m["cache.put_bytes"] = float64(c.putBytes - b.putBytes)
	m["cache.get_ms_p50"] = median(getMs)
	m["cache.put_ms_p50"] = median(putMs)
	m["jobs.count"] = float64(firstJobs)
	m["service.requests"] = float64(c.requests - b.requests)
	m["service.errors"] = float64(c.errors - b.errors)
	m["client.attempts"] = float64(c.attempts - b.attempts)
	m["client.failed_attempts"] = float64(c.failedAttempts - b.failedAttempts)
	m["distrib.node_share.b"] = frac(float64(runsB), float64(runsAll))
	m["distrib.shard_retries"] = float64(c.retries - b.retries)
	return m, nil
}

// inWindow reports whether a job was submitted during the measured
// window rather than during set-up.
func (f *fleetRun) inWindow(s jobs.Snapshot) bool {
	return f.base != nil && f.e.tr.at(s.CreatedAt) >= f.since
}

// jobSpans turns the nodes' job snapshots into spans: time queued and
// time executing. A job belongs to the request whose submit call
// created it, and its spans are children of that request's status call
// that waited for it to finish.
func (f *fleetRun) jobSpans() []Span {
	spans := f.e.tr.Spans()
	var out []Span
	for _, n := range f.nodes {
		var submits, waits []Span
		for _, s := range spans {
			switch {
			case s.Node != n.name:
			case s.Name == "service.submit":
				submits = append(submits, s)
			case s.Name == "service.status":
				waits = append(waits, s)
			}
		}
		for _, snap := range n.mgr.List() {
			if !f.inWindow(snap) || snap.StartedAt == nil || snap.FinishedAt == nil {
				continue
			}
			created, started, finished := f.e.tr.at(snap.CreatedAt), f.e.tr.at(*snap.StartedAt), f.e.tr.at(*snap.FinishedAt)
			var req, parent int64
			for _, s := range submits {
				if s.Start <= created && created <= s.End {
					req = s.Req
					break
				}
			}
			for _, s := range waits {
				if s.Req == req && s.Start <= finished && finished <= s.End {
					parent = s.ID
					break
				}
			}
			for _, sp := range []Span{
				{Name: "jobs.queue", Start: created, End: started},
				{Name: "jobs.exec", Start: started, End: finished},
			} {
				sp.ID, sp.Parent, sp.Req, sp.Node, sp.Key = f.e.tr.ID(), parent, req, n.name, snap.Hash
				out = append(out, sp)
			}
		}
	}
	return out
}

// attributeCacheSpans makes each store call a job made while executing
// (no request context reaches it) a child of that job's exec span, found
// by key and time, and returns the exec spans that stored a result:
// the jobs that missed the cache and simulated.
func attributeCacheSpans(spans []Span) (missed map[int64]bool) {
	execs := make(map[string][]Span)
	for _, s := range spans {
		if s.Name == "jobs.exec" {
			execs[s.Key] = append(execs[s.Key], s)
		}
	}
	missed = make(map[int64]bool)
	for i, s := range spans {
		if !strings.HasPrefix(s.Name, "cache.") || s.Parent != 0 {
			continue
		}
		for _, e := range execs[s.Key] {
			if e.Start <= s.Start && s.End <= e.End {
				spans[i].Parent, spans[i].Req = e.ID, e.Req
				if s.Name == "cache.put" {
					missed[e.ID] = true
				}
				break
			}
		}
	}
	return missed
}
