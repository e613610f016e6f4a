package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"net/http/httptest"
	"testing"

	"repro/campaign"
	"repro/campaign/distrib"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

// Every backend is pinned here to fixed SHA-256 digests of its output,
// not only to a second code path: any change to an event queue or
// kernel's event order, the MSG protocol or a cost model that moves a
// single bit of a result changes a digest. A change that only makes a
// backend faster must leave every digest as it is; one that means to
// alter results updates them deliberately.

// digestVariants are the run-description knobs the backends map onto
// their dynamics; msg has no start times.
var digestVariants = []struct {
	name  string
	noMSG bool
	apply func(*engine.CampaignSpec)
}{
	{"plain", false, func(*engine.CampaignSpec) {}},
	{"speeds", false, func(s *engine.CampaignSpec) { s.Speeds = []float64{1, 2, 0.5, 1.5} }},
	{"per_message_cost", false, func(s *engine.CampaignSpec) { s.PerMessageCost = 0.01 }},
	{"h_in_dynamics", false, func(s *engine.CampaignSpec) { s.HInDynamics = true }},
	{"start_times", true, func(s *engine.CampaignSpec) { s.StartTimes = []float64{0, 0.5, 1, 2} }},
	// Tied starts: requests at equal times are served in worker order.
	{"start_times_tied", true, func(s *engine.CampaignSpec) { s.StartTimes = []float64{0.5, 0, 0.5, 0} }},
}

var campaignDigests = map[string]string{
	"des/plain":            "0a27e080722bf8f2ddb9041a50f8f21c3ae45c243459f64a26251f2c9ce3c6d3",
	"des/speeds":           "c3012c72594bc2a44c4ac961340ee41ae5fb46987a46d0544102e16f5f3e98b9",
	"des/per_message_cost": "4d3bcbb1741a60a43428bd9e117e0485b5f3703876807690738e4965504f72ce",
	"des/h_in_dynamics":    "c015cb886dc118e3603c74da1dd92894d73951932f18ea811985e479a8597e3c",
	"des/start_times":      "ac508177301861b6ca99ea53774cb50dbf5089c199a5ddbcb78b61948544ee0f",
	"des/start_times_tied": "15dc285b92af5bfae1355d3e86108eb48c2677730afd8a44d385ae05f7bd9571",
	"msg/plain":            "31497f56a0a35c8fc60981c856a4516226aa9136d9bca3cd396c19b44958bb6b",
	"msg/speeds":           "7f1b1c140cc49570e12a18a7db097659d79c6ecd2f5888612d099152817ebb44",
	"msg/per_message_cost": "91470c616ae36fda86fcd334412ea48b9d4588f6ff584d43e5d2f3a55c4624f5",
	"msg/h_in_dynamics":    "1d879fcb55f339f50b6578049951232174208233de4ee4a53b8de5bd9f9731dc",
}

var tzenDigests = map[string]string{
	"experiment 1": "89680f848fa1698759242e23c41a97218c2e4c0d6232002af55fe5faa132b691",
	"experiment 2": "cdccb0955f86cc849aa68eaaec040e3aacc79e651bd373820b1a459064c82b74",
}

// simDigests pins the sim backend: the plain model at PE counts from a
// single worker to the paper's largest (13 and 1024 are not powers of
// two), and every variant at p = 4. On each variant sim and des agree
// bit for bit, so those digests equal des's.
var simDigests = map[string]string{
	"sim/plain/p1":         "99040881a7a196e19fb5b65837cffc79fc44299421cffe700a58e746aecd8fb3",
	"sim/plain/p3":         "2e3e3559229e6b22c7f3a85da115757af6fa66bf69aa442923fee0262c29b5fe",
	"sim/plain/p13":        "e9e25ba0d26b973cda2d01bad89cf1d09190ce0fab368b0cee7cb124f7eeea9b",
	"sim/plain/p1024":      "721f3343c7a7fb0d36c4129874b61e596a2428823dec1c282fb2d086ecfb3af8",
	"sim/speeds":           "c3012c72594bc2a44c4ac961340ee41ae5fb46987a46d0544102e16f5f3e98b9",
	"sim/per_message_cost": "4d3bcbb1741a60a43428bd9e117e0485b5f3703876807690738e4965504f72ce",
	"sim/h_in_dynamics":    "c015cb886dc118e3603c74da1dd92894d73951932f18ea811985e479a8597e3c",
	"sim/start_times":      "ac508177301861b6ca99ea53774cb50dbf5089c199a5ddbcb78b61948544ee0f",
	"sim/start_times_tied": "15dc285b92af5bfae1355d3e86108eb48c2677730afd8a44d385ae05f7bd9571",
}

// digestSpec is the small campaign every digest runs: five techniques,
// three replications, on p = 4 unless the caller changes it.
func digestSpec(backend string) engine.CampaignSpec {
	return engine.CampaignSpec{
		Backend:      backend,
		Techniques:   []string{"SS", "GSS", "FAC2", "AF", "BOLD"},
		Ns:           []int64{1000},
		Ps:           []int{4},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 3,
		Seed:         20170601,
	}
}

// checkDigest executes spec on one worker and compares the SHA-256 of
// its JSONL stream with want.
func checkDigest(t *testing.T, key string, spec engine.CampaignSpec, want string) {
	t.Helper()
	h := sha256.New()
	if _, err := spec.Execute(context.Background(), engine.ExecConfig{
		Workers: 1,
		Sinks:   []engine.Sink{engine.NewJSONLSink(h)},
	}); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s: JSONL digest %s, want %s", key, got, want)
	}
}

// TestDESAndMSGCampaignDigests pins the JSONL stream of small des and
// msg campaigns over five techniques and every variant.
func TestDESAndMSGCampaignDigests(t *testing.T) {
	for _, backend := range []string{"des", "msg"} {
		for _, v := range digestVariants {
			if v.noMSG && backend == "msg" {
				continue
			}
			key := backend + "/" + v.name
			spec := digestSpec(backend)
			v.apply(&spec)
			checkDigest(t, key, spec, campaignDigests[key])
		}
	}
}

// TestSimCampaignDigests pins the JSONL stream of small sim campaigns:
// the plain model (the specialised inner loop) at four PE counts, and
// every variant (the generic loop; start times use the specialised
// one).
func TestSimCampaignDigests(t *testing.T) {
	for _, p := range []int{1, 3, 13, 1024} {
		key := fmt.Sprintf("sim/plain/p%d", p)
		spec := digestSpec("sim")
		spec.Ns = []int64{1000, 8192}
		spec.Ps = []int{p}
		checkDigest(t, key, spec, simDigests[key])
	}
	for _, v := range digestVariants {
		if v.name == "plain" {
			continue // covered per p above
		}
		key := "sim/" + v.name
		spec := digestSpec("sim")
		v.apply(&spec)
		checkDigest(t, key, spec, simDigests[key])
	}
}

// TestTzenMSGDigests pins the speedup tables of both TSS-publication
// experiments on the full MSG model at the smallest and largest PE
// counts, with N reduced so the test stays fast.
func TestTzenMSGDigests(t *testing.T) {
	for _, spec := range []TzenSpec{TzenExperiment1(), TzenExperiment2()} {
		spec.UseMSG = true
		spec.N /= 10
		spec.Ps = []int{2, 80}
		res, err := RunTzen(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tzenDigest(res), tzenDigests[spec.Name]; got != want {
			t.Errorf("%s: speedup table digest %s, want %s", spec.Name, got, want)
		}
	}
}

// tzenDigest hashes a speedup table by IEEE-754 bits, curves in spec
// order.
func tzenDigest(r *TzenResult) string {
	h := newBitHash()
	for _, c := range r.Spec.Curves {
		h.Write([]byte(c.Label))
		for _, pt := range r.Curves[c.Label] {
			h.u64(uint64(pt.P))
			h.f64(pt.Speedup)
			h.f64(pt.Overhead)
			h.f64(pt.Imbalancing)
		}
	}
	return h.hex()
}

// bitHash is a SHA-256 fed little-endian integers and IEEE-754 bit
// patterns, so equal digests mean equal bits (-0 and +0 differ).
type bitHash struct {
	hash.Hash
	buf [8]byte
}

func newBitHash() *bitHash { return &bitHash{Hash: sha256.New()} }

func (h *bitHash) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.Write(h.buf[:])
}

func (h *bitHash) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *bitHash) hex() string { return hex.EncodeToString(h.Sum(nil)) }

// aggregateDigest hashes a campaign result by IEEE-754 bits: every
// point's Wasted, Makespan and Speedup summaries and MeanOps in point
// order, then the Overall roll-up.
func aggregateDigest(res *engine.CampaignResult) string {
	h := newBitHash()
	summary := func(s metrics.Summary) {
		h.u64(uint64(s.N))
		for _, v := range []float64{s.Mean, s.Std, s.Min, s.Max, s.Median} {
			h.f64(v)
		}
	}
	for _, a := range res.Aggregates {
		summary(a.Wasted)
		summary(a.Makespan)
		summary(a.Speedup)
		h.f64(a.MeanOps)
	}
	o := res.Overall
	h.u64(uint64(o.Count))
	for _, v := range []float64{o.Sum, o.MeanV, o.M2, o.MinV, o.MaxV} {
		h.f64(v)
	}
	return h.hex()
}

// pathDigests pins digestSpec for every backend and seed policy: the
// SHA-256 of the JSONL stream, then that of the aggregates
// (aggregateDigest). sim and des agree bit for bit, so their digests
// are equal.
var pathDigests = map[string][2]string{
	"sim/cell": {
		"0a27e080722bf8f2ddb9041a50f8f21c3ae45c243459f64a26251f2c9ce3c6d3",
		"d34db7215107cc42074d366f5cfe5ae902a292965bc15a0f889824fdb0798880",
	},
	"sim/flat": {
		"3456646393f1af74a708290ed85b7114e826d85dbcf0f679ddc0cd643f6a6318",
		"b8d424494cbb033b1d8791d7578f4936bc6e7a0df5cc3aaf673b90a0c2892e7b",
	},
	"sim/facade": {
		"e34d2622a9967d3fd0d269ae8fb19e10ce7e2d2bf5131be41800439d8c756905",
		"179102a4e41d35e4485ce84b141539bb2ff81ef1f521a47114b5f35513d6005e",
	},
	"sim/shared": {
		"b7dc6f2c1b26b91cca849ce53c412775860cae46092b8fe775ff237706d6b8da",
		"9e2a8739b209dac68a9467941a50e9429db2cbd51650d3c1a94ee8010acf5943",
	},
	"des/cell": {
		"0a27e080722bf8f2ddb9041a50f8f21c3ae45c243459f64a26251f2c9ce3c6d3",
		"d34db7215107cc42074d366f5cfe5ae902a292965bc15a0f889824fdb0798880",
	},
	"des/flat": {
		"3456646393f1af74a708290ed85b7114e826d85dbcf0f679ddc0cd643f6a6318",
		"b8d424494cbb033b1d8791d7578f4936bc6e7a0df5cc3aaf673b90a0c2892e7b",
	},
	"des/facade": {
		"e34d2622a9967d3fd0d269ae8fb19e10ce7e2d2bf5131be41800439d8c756905",
		"179102a4e41d35e4485ce84b141539bb2ff81ef1f521a47114b5f35513d6005e",
	},
	"des/shared": {
		"b7dc6f2c1b26b91cca849ce53c412775860cae46092b8fe775ff237706d6b8da",
		"9e2a8739b209dac68a9467941a50e9429db2cbd51650d3c1a94ee8010acf5943",
	},
	"msg/cell": {
		"31497f56a0a35c8fc60981c856a4516226aa9136d9bca3cd396c19b44958bb6b",
		"3d124794831e3335078671677858388f751ed3da9171b6b567c571c50e5998ad",
	},
	"msg/flat": {
		"66f8d25df9cb1daca4bcb23d73f4485b2a97fca33bc8f2b9c4e7e1d0461cce1e",
		"548f24db492f6cfb85eb16d60df8a245a2c56bb7f10862d32adeb29c23a7c910",
	},
	"msg/facade": {
		"99a3bd21da0cd61ba1edaced59717b5874818b0962d7f0b5aa9f46482e861cca",
		"263bfbf489168354f200a77efa5b61ba657252410fa6067d788fb3bc25857b80",
	},
	"msg/shared": {
		"69265dce51f281df2d24bc9e930f48dbccec20262c198e3c5d60600c1612f90d",
		"ffef4afbf0b942f9509890b3534355acdf9ee75c164b50ad5b209183a2efa388",
	},
}

// TestEnginePathDigests holds every way the engine produces a result to
// the same fixed digests: live execution at one and four workers and
// chunk sizes auto, 1 and 7 (more than the three replications), a cache
// replay through a JSONL sink, an aggregate-only hit, a
// client-side Aggregator fed the decoded JSONL rows, and a sharded
// fleet's rolling merge (checkFleetPaths). No path is the oracle of
// another.
func TestEnginePathDigests(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []string{"sim", "des", "msg"} {
		for _, policy := range []string{engine.SeedPerCell, engine.SeedFlat, engine.SeedFacade, engine.SeedShared} {
			key := backend + "/" + policy
			t.Run(key, func(t *testing.T) {
				spec := digestSpec(backend)
				spec.SeedPolicy = policy
				want := pathDigests[key]
				checkAgg := func(path string, res *engine.CampaignResult) {
					t.Helper()
					if got := aggregateDigest(res); got != want[1] {
						t.Errorf("%s: aggregate digest %s, want %s", path, got, want[1])
					}
				}
				check := func(path string, stream []byte, res *engine.CampaignResult) {
					t.Helper()
					if got := fmt.Sprintf("%x", sha256.Sum256(stream)); got != want[0] {
						t.Errorf("%s: JSONL digest %s, want %s", path, got, want[0])
					}
					checkAgg(path, res)
				}
				execute := func(cfg engine.ExecConfig) ([]byte, *engine.CampaignResult) {
					t.Helper()
					var buf bytes.Buffer
					cfg.Sinks = []engine.Sink{engine.NewJSONLSink(&buf)}
					res, err := spec.Execute(ctx, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return buf.Bytes(), res
				}

				var stream []byte
				for _, workers := range []int{1, 4} {
					for _, chunk := range []int{0, 1, 7} {
						var res *engine.CampaignResult
						stream, res = execute(engine.ExecConfig{Workers: workers, ChunkSize: chunk})
						check(fmt.Sprintf("live workers=%d chunk=%d", workers, chunk), stream, res)
					}
				}

				store := cache.NewMemory()
				res, err := spec.Execute(ctx, engine.ExecConfig{Cache: store})
				if err != nil {
					t.Fatal(err)
				}
				checkAgg("live cache fill", res)
				replayed, res := execute(engine.ExecConfig{Cache: store})
				check("cache replay", replayed, res)
				if res, err = spec.Execute(ctx, engine.ExecConfig{Cache: store}); err != nil {
					t.Fatal(err)
				}
				checkAgg("aggregate-only hit", res)

				agg, err := spec.NewAggregator(false)
				if err != nil {
					t.Fatal(err)
				}
				for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
					if len(line) == 0 {
						continue
					}
					ev, err := engine.DecodeJSONLEvent(line)
					if err != nil {
						t.Fatal(err)
					}
					if err := agg.Consume(ctx, ev); err != nil {
						t.Fatal(err)
					}
				}
				if err := agg.Close(); err != nil {
					t.Fatal(err)
				}
				checkAgg("client aggregator", agg.Result())

				checkFleetPaths(t, spec, check)
			})
		}
	}
}

// checkFleetPaths runs spec through a distrib.Coordinator over three
// in-process dlsimd nodes (a job manager behind the /v1 HTTP service,
// one worker each, one shared memory store) at shard counts 1, 2, 3, 7
// and 15; at 15 every run of digestSpec is its own shard. Each count
// checks the coordinator's Execute (the rolling merge) against the
// key's digests.
func checkFleetPaths(t *testing.T, spec engine.CampaignSpec, check func(string, []byte, *engine.CampaignResult)) {
	t.Helper()
	ctx := context.Background()
	store := cache.NewMemory()
	nodes := make([]campaign.Runner, 3)
	for i := range nodes {
		mgr := jobs.NewManager(jobs.Config{Store: store, Workers: 1})
		srv := httptest.NewServer(service.New(mgr).Handler())
		t.Cleanup(func() {
			mgr.Close()
			srv.Close()
		})
		cli, err := client.New(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = cli
	}
	for _, shards := range []int{1, 2, 3, 7, 15} {
		coord, err := distrib.New(nodes, distrib.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res, err := coord.Execute(ctx, spec,
			campaign.ExecOptions{Sinks: []campaign.Sink{campaign.NewJSONLSink(&buf)}})
		if err != nil {
			t.Fatalf("fleet execute shards=%d: %v", shards, err)
		}
		check(fmt.Sprintf("fleet execute shards=%d", shards), buf.Bytes(), res)
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
