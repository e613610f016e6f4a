package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
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
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range r.Spec.Curves {
		h.Write([]byte(c.Label))
		for _, pt := range r.Curves[c.Label] {
			u64(uint64(pt.P))
			u64(math.Float64bits(pt.Speedup))
			u64(math.Float64bits(pt.Overhead))
			u64(math.Float64bits(pt.Imbalancing))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
