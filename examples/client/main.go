// Client SDK: run the same campaign twice — once in-process through
// the campaign.LocalRunner Executor, and once through the job API
// (submit, wait, stream) of a dlsimd service over HTTP with
// client.Client — and verify the aggregates match bit for bit.
//
//	go run ./examples/client [-server URL] [-runs N]
//
// Without -server the example starts a dlsimd-equivalent service on an
// ephemeral localhost port, so it is runnable standalone; point -server
// at a real daemon (dlsimd -addr :8080) to exercise it instead. Only
// the public campaign and client packages are used for the interaction
// — everything after the server URL is exactly what an external
// consumer of the SDK writes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"

	"repro/campaign"
	"repro/client"
	"repro/internal/jobs"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	server := flag.String("server", "", "dlsimd base URL (default: start an in-process service)")
	runs := flag.Int("runs", 50, "replications per grid cell")
	flag.Parse()
	ctx := context.Background()

	// One cell of the paper's Figure 6 setup as a declarative campaign:
	// plain data, hashable, executable by any Executor.
	spec := campaign.Spec{
		Techniques:   []string{"FAC2", "GSS", "BOLD"},
		Ns:           []int64{8192},
		Ps:           []int{64},
		Workload:     campaign.Workload{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: *runs,
		Seed:         42,
	}

	// 1. Locally, through the in-process engine.
	localRes, err := campaign.Run(ctx, campaign.NewLocal(campaign.LocalConfig{}), spec)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Remotely, through the typed /v1 HTTP client.
	base := *server
	if base == "" {
		srv, stop := inProcessService()
		defer stop()
		base = srv
		log.Printf("no -server given; started an in-process dlsimd at %s", base)
	}
	remote, err := client.New(base)
	if err != nil {
		log.Fatal(err)
	}
	desc, err := remote.Describe(ctx)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("connected to %s (%s, %d techniques, backends %v)",
		base, desc.Service, len(desc.Techniques), desc.Backends)

	job, err := remote.Submit(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("submitted job %s (campaign %.12s, deduped=%v)", job.ID, job.Hash, job.Deduped)
	snap, err := remote.Wait(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("job %s: %s, %d/%d runs", snap.ID, snap.State, snap.Completed, snap.Total)

	// Client-side aggregation over the streamed per-run events is the
	// same deterministic fold the server runs, so the numbers match the
	// local execution exactly.
	agg, err := spec.NewAggregator(false)
	if err != nil {
		log.Fatal(err)
	}
	if err := remote.Stream(ctx, job.ID, agg); err != nil {
		log.Fatal(err)
	}
	remoteRes := agg.Result()

	fmt.Printf("\n%-6s  %14s  %14s  %s\n", "tech", "local wasted", "remote wasted", "bit-identical")
	for i, a := range localRes.Aggregates {
		r := remoteRes.Aggregates[i]
		fmt.Printf("%-6s  %14.6g  %14.6g  %v\n",
			a.Spec.Technique, a.Wasted.Mean, r.Wasted.Mean, a.Wasted == r.Wasted)
	}
}

// inProcessService starts a dlsimd-equivalent HTTP service on an
// ephemeral port (external consumers run the dlsimd binary instead —
// this is only so the example works standalone).
func inProcessService() (url string, stop func()) {
	mgr := jobs.NewManager(jobs.Config{})
	srv := httptest.NewServer(service.New(mgr).Handler())
	return srv.URL, func() {
		srv.Close()
		mgr.Close()
	}
}
