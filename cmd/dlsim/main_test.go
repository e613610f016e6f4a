package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/service"
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

// simOrFail is the sim backend, except that under DLSIM_NO_RUNS=1 it
// fails every run: a campaign that succeeds there performed none.
type simOrFail struct{ engine.Backend }

var errNoRuns = errors.New("backend run under DLSIM_NO_RUNS=1")

func (simOrFail) Name() string { return "sim-or-fail" }

func (b simOrFail) Run(ctx context.Context, spec engine.RunSpec) (*engine.RunResult, error) {
	if os.Getenv("DLSIM_NO_RUNS") == "1" {
		return nil, errNoRuns
	}
	return b.Backend.Run(ctx, spec)
}

func (b simOrFail) NewRunner(spec engine.RunSpec) (engine.Runner, error) {
	if os.Getenv("DLSIM_NO_RUNS") == "1" {
		return nil, errNoRuns
	}
	return b.Backend.NewRunner(spec)
}

func init() {
	sim, err := engine.New("sim")
	if err != nil {
		panic(err)
	}
	engine.Register(simOrFail{sim})
}

// dlsim runs the command with args and extra environment, fails the
// test unless it exits 0, and returns its stdout.
func dlsim(t *testing.T, env []string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "DLSIM_RUN_MAIN=1"), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dlsim %v: %v; stderr:\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// sameFiles fails the test unless the files at paths a and b hold the
// same bytes.
func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) == 0 || !bytes.Equal(x, y) {
		t.Fatalf("%s (%d bytes) and %s (%d bytes) differ", a, len(x), b, len(y))
	}
}

// TestReplayServedFromCache: a replay is a campaign spec like any
// other, so with -cache a repeated replay is served from the store: it
// succeeds where any backend run fails, with the first run's bytes.
func TestReplayServedFromCache(t *testing.T) {
	dir := t.TempDir()
	args := func(out string) []string {
		return []string{"-replay", filepath.Join("testdata", "gss.csv"), "-per-run", "3",
			"-backend", "sim-or-fail", "-cache", filepath.Join(dir, "cache"), "-out", filepath.Join(dir, out)}
	}
	first := dlsim(t, nil, args("a.jsonl")...)
	second := dlsim(t, []string{"DLSIM_NO_RUNS=1"}, args("b.jsonl")...)
	if !bytes.Equal(first, second) {
		t.Fatalf("cached replay printed\n%s\nthe live one\n%s", second, first)
	}
	sameFiles(t, filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl"))
}

// TestReplayThroughServers: a replay executes on an in-process dlsimd
// through -server, and sharded across two through -servers, with the
// same stdout and JSONL as a local run.
func TestReplayThroughServers(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		mgr := jobs.NewManager(jobs.Config{})
		srv := httptest.NewServer(service.New(mgr).Handler())
		// Closing the manager first ends every status long-poll, so the
		// server has no active request left to wait for.
		t.Cleanup(func() {
			mgr.Close()
			srv.Close()
		})
		urls = append(urls, srv.URL)
	}
	dir := t.TempDir()
	args := func(out string, more ...string) []string {
		return append([]string{"-replay", filepath.Join("testdata", "gss.csv"), "-per-run", "5",
			"-out", filepath.Join(dir, out)}, more...)
	}
	local := dlsim(t, nil, args("local.jsonl")...)
	for name, more := range map[string][]string{
		"server":  {"-server", urls[0]},
		"servers": {"-servers", strings.Join(urls, ","), "-shards", "3"},
	} {
		if got := dlsim(t, nil, args(name+".jsonl", more...)...); !bytes.Equal(got, local) {
			t.Errorf("-%s printed\n%s\na local run\n%s", name, got, local)
		}
		sameFiles(t, filepath.Join(dir, "local.jsonl"), filepath.Join(dir, name+".jsonl"))
	}
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

// TestFailedFleetRunReportsMissingShards: a fleet run whose nodes all
// refuse connections exits 1, but first reports, with no flag asking
// for it, what completed, every missing shard window and each node's
// breaker. The flag-driven single point and the same campaign as a
// -spec file report alike, the report ahead of the error line.
func TestFailedFleetRunReportsMissingShards(t *testing.T) {
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
				"-servers", servers, "-out", filepath.Join(dir, name+".jsonl"),
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

// replayDigests pin a replay of testdata/gss.csv, a 24-event trace
// written by `dlsim -tech GSS -n 2000 -p 4 -trace`, on each backend
// under the default flags (FAC2, n = 1024 of the trace's 2000 tasks,
// p = 8): the SHA-256 of the -out JSONL and of stdout.
var replayDigests = map[string][2]string{
	"sim": {"51cdb7493d5af3c3f585d4482c278d08d12ee390cedc211b68a6fdf16f5047f9", "f53fc688302ec5e36fc45af51509bd9bb6bcb2ea8458385ade076d405791a7ca"},
	"des": {"51cdb7493d5af3c3f585d4482c278d08d12ee390cedc211b68a6fdf16f5047f9", "a48ff65d11c32ba1e27a031687d1c3d1619882ba1472c1568c8eb1c1412c859c"},
	"msg": {"51ee8707ea0e1aed9039c9805873b54ffecd96221ca866d04cabd693efdbbcf2", "3c0d73aeb1109d522d02ddc8fe6b5ac0ba2ae2397c9707fef7ed76d810b35037"},
}

// TestReplayDigests: -replay prints and exports the pinned bytes on
// every backend.
func TestReplayDigests(t *testing.T) {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for backend, want := range replayDigests {
		t.Run(backend, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "x.jsonl")
			cmd := exec.Command(os.Args[0], "-replay", filepath.Join("testdata", "gss.csv"),
				"-per-run", "3", "-backend", backend, "-out", out)
			cmd.Env = append(os.Environ(), "DLSIM_RUN_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v; stderr:\n%s", err, stderr.String())
			}
			jsonl, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := sum(jsonl); got != want[0] {
				t.Errorf("JSONL digest %s, want %s", got, want[0])
			}
			if got := sum(stdout.Bytes()); got != want[1] {
				t.Errorf("stdout digest %s, want %s; stdout:\n%s", got, want[1], stdout.String())
			}
		})
	}
}
