package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// The process-oriented backends (des, msg) are pinned here to fixed
// SHA-256 digests of their output, not only to a second code path: any
// change to the kernel's event order, the MSG protocol or their cost
// model that moves a single bit of a result changes a digest. A change
// that only makes these backends faster must leave every digest as it
// is; one that means to alter results updates them deliberately.

// digestVariants are the run-description knobs the backends map onto
// their dynamics; start_times exists on des only.
var digestVariants = []struct {
	name    string
	desOnly bool
	apply   func(*engine.CampaignSpec)
}{
	{"plain", false, func(*engine.CampaignSpec) {}},
	{"speeds", false, func(s *engine.CampaignSpec) { s.Speeds = []float64{1, 2, 0.5, 1.5} }},
	{"per_message_cost", false, func(s *engine.CampaignSpec) { s.PerMessageCost = 0.01 }},
	{"h_in_dynamics", false, func(s *engine.CampaignSpec) { s.HInDynamics = true }},
	{"start_times", true, func(s *engine.CampaignSpec) { s.StartTimes = []float64{0, 0.5, 1, 2} }},
}

var campaignDigests = map[string]string{
	"des/plain":            "0a27e080722bf8f2ddb9041a50f8f21c3ae45c243459f64a26251f2c9ce3c6d3",
	"des/speeds":           "c3012c72594bc2a44c4ac961340ee41ae5fb46987a46d0544102e16f5f3e98b9",
	"des/per_message_cost": "4d3bcbb1741a60a43428bd9e117e0485b5f3703876807690738e4965504f72ce",
	"des/h_in_dynamics":    "c015cb886dc118e3603c74da1dd92894d73951932f18ea811985e479a8597e3c",
	"des/start_times":      "ac508177301861b6ca99ea53774cb50dbf5089c199a5ddbcb78b61948544ee0f",
	"msg/plain":            "31497f56a0a35c8fc60981c856a4516226aa9136d9bca3cd396c19b44958bb6b",
	"msg/speeds":           "7f1b1c140cc49570e12a18a7db097659d79c6ecd2f5888612d099152817ebb44",
	"msg/per_message_cost": "91470c616ae36fda86fcd334412ea48b9d4588f6ff584d43e5d2f3a55c4624f5",
	"msg/h_in_dynamics":    "1d879fcb55f339f50b6578049951232174208233de4ee4a53b8de5bd9f9731dc",
}

var tzenDigests = map[string]string{
	"experiment 1": "89680f848fa1698759242e23c41a97218c2e4c0d6232002af55fe5faa132b691",
	"experiment 2": "cdccb0955f86cc849aa68eaaec040e3aacc79e651bd373820b1a459064c82b74",
}

// TestDESAndMSGCampaignDigests pins the JSONL stream of small des and
// msg campaigns over five techniques and every variant.
func TestDESAndMSGCampaignDigests(t *testing.T) {
	for _, backend := range []string{"des", "msg"} {
		for _, v := range digestVariants {
			if v.desOnly && backend != "des" {
				continue
			}
			key := backend + "/" + v.name
			spec := engine.CampaignSpec{
				Backend:      backend,
				Techniques:   []string{"SS", "GSS", "FAC2", "AF", "BOLD"},
				Ns:           []int64{1000},
				Ps:           []int{4},
				Workload:     workload.Spec{Kind: "exponential", P1: 1},
				H:            0.5,
				Replications: 3,
				Seed:         20170601,
			}
			v.apply(&spec)
			h := sha256.New()
			if _, err := spec.Execute(context.Background(), engine.ExecConfig{
				Workers: 1,
				Sinks:   []engine.Sink{engine.NewJSONLSink(h)},
			}); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), campaignDigests[key]; got != want {
				t.Errorf("%s: JSONL digest %s, want %s", key, got, want)
			}
		}
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
