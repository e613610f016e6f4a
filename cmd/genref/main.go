// Command genref regenerates the pinned Hagerup reference dataset
// (internal/refdata/hagerup_data.go). The dataset stands in for the
// original publication's Table I values, which are not available to this
// reproduction (see the internal/refdata package doc); it is produced by
// the Hagerup-replica simulator under refdata.Seed with the paper's full
// parameters (1000 runs, exponential µ = 1 s, h = 0.5 s).
//
// Usage:
//
//	go run ./cmd/genref > internal/refdata/hagerup_data.go
//
// Pass -runs to generate a reduced dataset for experimentation (the
// committed file must use the default 1000). Ctrl-C cancels the grid
// and exits 130, like the other commands (internal/cliutil).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiment"
	"repro/internal/refdata"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genref: ")
	ctx, stop := cliutil.SignalContext(context.Background())
	err := run(ctx)
	stop()
	cliutil.Exit(err)
}

func run(ctx context.Context) error {
	runs := flag.Int("runs", refdata.Runs, "runs per grid cell")
	flag.Parse()

	spec := experiment.HagerupGrid(refdata.Seed)
	spec.Runs = *runs
	log.Printf("generating %d cells × %d runs (seed %#x)...",
		len(spec.Techniques)*len(spec.Ns)*len(spec.Ps), spec.Runs, spec.Seed)
	res, err := experiment.RunHagerup(ctx, spec)
	if err != nil {
		return err
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, "// Code generated by cmd/genref; DO NOT EDIT.")
	fmt.Fprintln(w, "//")
	fmt.Fprintf(w, "// Pinned Hagerup reference dataset: %d runs per cell, seed %#x.\n", spec.Runs, spec.Seed)
	fmt.Fprintln(w, "// See the internal/refdata package doc for the substitution rationale.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "package refdata")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "var hagerupWasted = map[hagerupKey]float64{")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "\t{%q, %d, %d}: %.6g,\n", c.Technique, c.N, c.P, c.Wasted.Mean)
	}
	fmt.Fprintln(w, "}")
	return w.Flush()
}
