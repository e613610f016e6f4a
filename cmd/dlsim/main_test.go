package main

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the dlsim entry point: a test re-executes its own
// binary with DLSIM_RUN_MAIN=1 to observe a real invocation's stderr
// and exit code.
func TestMain(m *testing.M) {
	if os.Getenv("DLSIM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// closedURL returns the base URL of a loopback port that was just
// released, so every connection to it is refused.
func closedURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// TestPartialFleetRunReportsMissingShards: a degraded-mode fleet run
// whose nodes all refuse connections fails, but first reports what
// completed, every missing shard window and each node's breaker. The
// flag-driven single point and the same campaign as a -spec file report
// alike, the report ahead of the error line.
func TestPartialFleetRunReportsMissingShards(t *testing.T) {
	servers := closedURL(t) + "," + closedURL(t)
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"backend":"sim","techniques":["FAC2"],"ns":[64],"ps":[4],`+
		`"workload":{"kind":"exponential","p1":1},"h":0.5,"replications":4,"seed":1,"seed_policy":"flat"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"flags": {"-per-run", "4", "-n", "64", "-p", "4"},
		"spec":  {"-spec", spec},
	} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{
				"-servers", servers, "-partial", "-out", filepath.Join(dir, name+".jsonl"),
			}, args...)...)
			cmd.Env = append(os.Environ(), "DLSIM_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit = %v, want status 1; stderr:\n%s", err, stderr.String())
			}
			out := stderr.String()
			prev := -1
			for _, want := range []string{
				"partial results: 0/4 runs completed",
				"  missing shard 0: point 0 reps [0,2): ",
				"  missing shard 1: point 0 reps [2,4): ",
				"  node 0: breaker ",
				"  node 1: breaker ",
				"incomplete campaign",
			} {
				at := strings.Index(out, want)
				if at < 0 {
					t.Fatalf("stderr lacks %q:\n%s", want, out)
				}
				if at < prev {
					t.Fatalf("%q out of order in stderr:\n%s", want, out)
				}
				prev = at
			}
		})
	}
}

// TestDistDefaultP2Rejected: uniform, increasing and gamma cannot run
// with the default -p2 0, and the usage error says so: exit status 2,
// naming -p2 and what the kind expects of it.
func TestDistDefaultP2Rejected(t *testing.T) {
	for kind, want := range map[string]string{
		"uniform":    "-p2 hi >= lo",
		"increasing": "-p2 last task time, last >= first",
		"gamma":      "-p2 scale > 0",
	} {
		t.Run(kind, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-tech", "GSS", "-n", "64", "-p", "4", "-dist", kind)
			cmd.Env = append(os.Environ(), "DLSIM_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			if out := stderr.String(); !strings.Contains(out, "-dist "+kind+" takes") || !strings.Contains(out, want) {
				t.Fatalf("stderr lacks \"-dist %s takes\" or %q:\n%s", kind, want, out)
			}
		})
	}
}
