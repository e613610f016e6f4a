package msg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runAppProcesses is the Figure 1 protocol as MSG processes: a master
// process and one worker process per PE exchanging tasks through
// mailboxes. RunApp runs the same protocol as kernel callbacks; this
// form is its differential reference, which the tests require to
// agree with it bit for bit. The engine must be fresh (time 0) and is
// run to completion.
func runAppProcesses(e *Engine, cfg AppConfig) (*AppResult, error) {
	p := len(cfg.WorkerHosts)
	if p == 0 {
		return nil, fmt.Errorf("msg: no worker hosts")
	}
	if cfg.Sched == nil || cfg.Work == nil {
		return nil, fmt.Errorf("msg: AppConfig requires Sched and Work")
	}
	if !cfg.Work.Deterministic() && cfg.RNG == nil {
		return nil, fmt.Errorf("msg: random workload %q requires RNG", cfg.Work.Name())
	}
	refSpeed := cfg.ReferenceSpeed
	if refSpeed <= 0 {
		mh, err := e.Platform().Host(cfg.MasterHost)
		if err != nil {
			return nil, err
		}
		refSpeed = mh.Speed
	}

	res := &AppResult{
		Compute:        make([]float64, p),
		CommWait:       make([]float64, p),
		OpsPerWorker:   make([]int64, p),
		TasksPerWorker: make([]int64, p),
	}

	master, links, err := declareMailboxes(e, cfg)
	if err != nil {
		return nil, err
	}

	var nextTask int64
	var appErr error
	fail := func(err error) {
		if appErr == nil {
			appErr = err
		}
	}

	// Master: Figure 1 left side.
	err = e.Spawn(cfg.MasterHost, "master", func(mp *Process) {
		finalized := 0
		for finalized < p {
			t := mp.recv(master)
			r, ok := t.Payload.(*request)
			if !ok {
				fail(fmt.Errorf("msg: master received %T, want *request", t.Payload))
				return
			}
			req := *r
			if req.lastChunk > 0 {
				cfg.Sched.Report(req.worker, req.lastChunk, req.lastElapsed, mp.Now())
			}
			if cfg.MasterOverhead > 0 {
				mp.Sleep(cfg.MasterOverhead)
			}
			chunk := cfg.Sched.Next(req.worker, mp.Now())
			l := &links[req.worker]
			l.rep = reply{chunk: chunk}
			if chunk > 0 {
				seconds := cfg.Work.ChunkTime(nextTask, chunk, cfg.RNG)
				nextTask += chunk
				l.rep.flops = seconds * refSpeed
				res.SchedOps++
				res.OpsPerWorker[req.worker]++
				res.TasksPerWorker[req.worker] += chunk
			} else {
				finalized++
			}
			mp.send(l.mb, &l.repTask, l.ctrlTime)
		}
		if t := mp.Now(); t > res.Makespan {
			res.Makespan = t
		}
	})
	if err != nil {
		return nil, err
	}

	// Workers: Figure 1 right side.
	for w := range cfg.WorkerHosts {
		l := &links[w]
		err := e.Spawn(cfg.WorkerHosts[w], l.mb.name, func(wp *Process) {
			for {
				sendStart := wp.Now()
				wp.send(master, &l.reqTask, l.ctrlTime)
				t := wp.recv(l.mb)
				res.CommWait[w] += wp.Now() - sendStart
				r, ok := t.Payload.(*reply)
				if !ok {
					fail(fmt.Errorf("msg: worker %d received %T, want *reply", w, t.Payload))
					return
				}
				rep := *r
				if rep.chunk == 0 {
					if t := wp.Now(); t > res.Makespan {
						res.Makespan = t
					}
					return
				}
				start := wp.Now()
				wp.Execute(rep.flops)
				l.req.lastElapsed = wp.Now() - start
				l.req.lastChunk = rep.chunk
				res.Compute[w] += l.req.lastElapsed
			}
		})
		if err != nil {
			return nil, err
		}
	}

	if err := e.Run(); err != nil {
		return nil, err
	}
	if appErr != nil {
		return nil, appErr
	}
	return res, nil
}

// appCase is one master–worker configuration that both forms of the
// protocol run.
type appCase struct {
	tech     string
	minChunk int64 // GSS(k)'s k; 0 selects the default
	n        int64
	p        int
	lat      float64 // every link's latency; 0 also makes bandwidth infinite
	overhead float64 // AppConfig.MasterOverhead
	work     string  // workload kind, see workload
	scale    float64 // the workload's task time scale
	speeds   []float64
	rngState uint64
}

func (c appCase) String() string {
	return fmt.Sprintf("%s(k=%d) n=%d p=%d lat=%g overhead=%g %s(%g) speeds=%v rng=%#x",
		c.tech, c.minChunk, c.n, c.p, c.lat, c.overhead, c.work, c.scale, c.speeds, c.rngState)
}

// workload builds the case's task times. The bimodal kind's light
// tasks take no time, so some chunks cost no flops.
func (c appCase) workload() (workload.Workload, error) {
	s := workload.Spec{Kind: c.work, P1: c.scale, N: c.n}
	switch c.work {
	case "increasing":
		s.P1, s.P2 = c.scale/2, 2*c.scale
	case "decreasing":
		s.P1, s.P2 = 2*c.scale, c.scale/2
	case "uniform":
		s.P1, s.P2 = 0, 2*c.scale
	case "gamma":
		s.P1, s.P2 = 2, c.scale/2
	case "bimodal":
		s.P1, s.P2, s.P3 = 0, 2*c.scale, 0.5
	}
	return s.Build()
}

// run runs the case through one form of the protocol. It reports
// ok = false when the technique rejects the case's parameters.
func (c appCase) run(t testing.TB, form func(*Engine, AppConfig) (*AppResult, error)) (res *AppResult, ok bool) {
	t.Helper()
	bw, _ := platform.FreeNetwork()
	if c.lat == 0 {
		bw = math.Inf(1) // messages cost nothing, so steps tie in time
	}
	speeds := c.speeds
	if speeds == nil {
		speeds = make([]float64, c.p)
		for i := range speeds {
			speeds[i] = 1
		}
	}
	pl, err := platform.Heterogeneous("h", speeds, bw, c.lat)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	workers := make([]string, c.p)
	for i := range workers {
		workers[i] = fmt.Sprintf("h-%d", i+1)
	}
	s, err := sched.New(c.tech, sched.Params{
		N: c.n, P: c.p, H: 0.5, Mu: c.scale, Sigma: c.scale,
		MinChunk: c.minChunk, Weights: c.speeds,
	})
	if err != nil {
		return nil, false
	}
	work, err := c.workload()
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	cfg := AppConfig{
		MasterHost: "h-0", WorkerHosts: workers,
		Sched: s, Work: work, RNG: rng.FromState(c.rngState),
		MasterOverhead: c.overhead,
	}
	if c.speeds != nil {
		cfg.ReferenceSpeed = 1 // else the fastest worker's speed, the master's
	}
	res, err = form(NewEngine(pl), cfg)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return res, true
}

// diffResults names the first AppResult field in which got and want
// differ bit for bit, or returns "".
func diffResults(got, want *AppResult) string {
	sameFloats := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan):
		return fmt.Sprintf("Makespan %v, want %v", got.Makespan, want.Makespan)
	case !sameFloats(got.Compute, want.Compute):
		return fmt.Sprintf("Compute %v, want %v", got.Compute, want.Compute)
	case !sameFloats(got.CommWait, want.CommWait):
		return fmt.Sprintf("CommWait %v, want %v", got.CommWait, want.CommWait)
	case got.SchedOps != want.SchedOps:
		return fmt.Sprintf("SchedOps %d, want %d", got.SchedOps, want.SchedOps)
	case !slices.Equal(got.OpsPerWorker, want.OpsPerWorker):
		return fmt.Sprintf("OpsPerWorker %v, want %v", got.OpsPerWorker, want.OpsPerWorker)
	case !slices.Equal(got.TasksPerWorker, want.TasksPerWorker):
		return fmt.Sprintf("TasksPerWorker %v, want %v", got.TasksPerWorker, want.TasksPerWorker)
	}
	return ""
}

// checkMatchesProcesses runs c through RunApp and the process form and
// fails t unless every result bit agrees. It reports whether the
// technique accepted the case.
func checkMatchesProcesses(t testing.TB, c appCase) bool {
	t.Helper()
	want, ok := c.run(t, runAppProcesses)
	if !ok {
		return false
	}
	got, _ := c.run(t, RunApp)
	if d := diffResults(got, want); d != "" {
		t.Errorf("%v: RunApp differs from the process form: %s", c, d)
	}
	return true
}

// TestRunAppMatchesProcesses requires RunApp's callbacks to produce the
// process form's bits on a grid of every technique, PE counts from 1 to
// 17, task counts from 1 to 1000, three link latencies, three master
// overheads, constant, random and increasing task times, and equal and
// unequal host speeds.
func TestRunAppMatchesProcesses(t *testing.T) {
	var runs int
	for _, tech := range sched.Names() {
		for _, p := range []int{1, 2, 3, 8, 17} {
			unequal := make([]float64, p)
			for i := range unequal {
				unequal[i] = float64(1 + i%3)
			}
			for _, n := range []int64{1, 7, 100, 1000} {
				for _, lat := range []float64{1e-12, 50e-6, 0.01} {
					for _, overhead := range []float64{0, 5e-6, 0.01} {
						for _, work := range []string{"constant", "exponential", "increasing"} {
							for _, speeds := range [][]float64{nil, unequal} {
								c := appCase{
									tech: tech, n: n, p: p, lat: lat, overhead: overhead,
									work: work, scale: 0.01, speeds: speeds,
									rngState: uint64(runs) * 0x9e3779b97f4a7c15,
								}
								runs++
								if !checkMatchesProcesses(t, c) {
									t.Fatalf("%v: the technique rejected the case", c)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations", runs)
}

// Tables the fuzz target's bytes index, with values the paper's
// experiments use and extremes around them.
var (
	fuzzTechs     = sched.Names()
	fuzzLatencies = []float64{1e-12, 0, 50e-6, 1e-3, 0.01, 0.25}
	fuzzOverheads = []float64{0, 5e-6, 1e-3, 0.01, 0.5}
	fuzzWorks     = []string{"constant", "exponential", "increasing", "decreasing", "uniform", "gamma", "bimodal"}
	fuzzScales    = []float64{110e-6, 2e-3, 0.01, 1}
)

// decodeAppCase reads a case from fuzz bytes, zero past their end:
// technique, n−1 (2 bytes, mod 4096), p−1 (mod 64), latency, overhead,
// GSS(k)'s k, workload kind, task time scale, the rand48 state (8
// bytes), and a speeds flag, after which each nonzero flag's worker w
// takes speed (1 + byte w mod 16) / 4.
func decodeAppCase(data []byte) appCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	pick := func(i, n int) int { return int(at(i)) % n }
	c := appCase{
		tech:     fuzzTechs[pick(0, len(fuzzTechs))],
		n:        1 + (int64(at(1))<<8|int64(at(2)))%4096,
		p:        1 + pick(3, 64),
		lat:      fuzzLatencies[pick(4, len(fuzzLatencies))],
		overhead: fuzzOverheads[pick(5, len(fuzzOverheads))],
		minChunk: int64(at(6)),
		work:     fuzzWorks[pick(7, len(fuzzWorks))],
		scale:    fuzzScales[pick(8, len(fuzzScales))],
	}
	for i := 0; i < 8; i++ {
		c.rngState |= uint64(at(9+i)) << (8 * i)
	}
	if at(17) != 0 {
		c.speeds = make([]float64, c.p)
		for w := range c.speeds {
			c.speeds[w] = float64(1+at(18+w)%16) / 4
		}
	}
	return c
}

// encodeAppCase is decodeAppCase's inverse for cases built from the
// tables' values and speeds in quarter steps from 0.25 to 4.
func encodeAppCase(c appCase) []byte {
	data := make([]byte, 18+len(c.speeds))
	data[0] = byte(slices.Index(fuzzTechs, c.tech))
	data[1], data[2] = byte((c.n-1)>>8), byte(c.n-1)
	data[3] = byte(c.p - 1)
	data[4] = byte(slices.Index(fuzzLatencies, c.lat))
	data[5] = byte(slices.Index(fuzzOverheads, c.overhead))
	data[6] = byte(c.minChunk)
	data[7] = byte(slices.Index(fuzzWorks, c.work))
	data[8] = byte(slices.Index(fuzzScales, c.scale))
	for i := 0; i < 8; i++ {
		data[9+i] = byte(c.rngState >> (8 * i))
	}
	if c.speeds != nil {
		data[17] = 1
		for w, s := range c.speeds {
			data[18+w] = byte(s*4 - 1)
		}
	}
	return data
}

// FuzzRunAppMatchesProcesses requires RunApp to produce the process
// form's bits on any small configuration. Its corpus starts from the
// paper's Tzen curves (both experiments' task times, link latency and
// master overhead, at the largest PE count the decoder allows) and
// from the adaptive techniques that feed the chunk calculator Report,
// on unequal speeds and random task times, and from zero-flop chunks.
func FuzzRunAppMatchesProcesses(f *testing.F) {
	tzen := func(tech string, k int64, scale float64) appCase {
		return appCase{tech: tech, minChunk: k, n: 4096, p: 64, lat: 50e-6, overhead: 5e-6,
			work: "constant", scale: scale}
	}
	speeds := []float64{1, 2, 0.5, 4, 1, 1.5, 3, 0.25}
	adaptive := func(tech string) appCase {
		return appCase{tech: tech, n: 4096, p: len(speeds), lat: 1e-3, overhead: 1e-3,
			work: "exponential", scale: 0.01, speeds: speeds, rngState: 20170601}
	}
	seeds := []appCase{
		tzen("SS", 0, 110e-6), tzen("CSS", 0, 110e-6), tzen("GSS", 1, 110e-6),
		tzen("GSS", 80, 110e-6), tzen("TSS", 0, 110e-6),
		tzen("SS", 0, 2e-3), tzen("CSS", 0, 2e-3), tzen("GSS", 1, 2e-3),
		tzen("GSS", 5, 2e-3), tzen("TSS", 0, 2e-3),
		adaptive("AWF-B"), adaptive("AF"), adaptive("BOLD"),
		{tech: "SS", n: 200, p: 3, lat: 0, work: "bimodal", scale: 0.01, rngState: 7},
	}
	for _, c := range seeds {
		if got := decodeAppCase(encodeAppCase(c)); got.String() != c.String() {
			f.Fatalf("seed %v decodes as %v", c, got)
		}
		f.Add(encodeAppCase(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesProcesses(t, decodeAppCase(data))
	})
}
