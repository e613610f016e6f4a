package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestMain doubles as the daemon entry point: the test re-executes its
// own binary with DLSIMD_RUN_MAIN=1 to get a real dlsimd process it can
// SIGKILL — an in-process daemon would take the test down with it.
func TestMain(m *testing.M) {
	if os.Getenv("DLSIMD_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon is one spawned dlsimd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu  sync.Mutex
	log bytes.Buffer
}

// startDaemon launches the daemon on an ephemeral port and waits for
// its "listening on" log line to learn the address. Extra env entries
// exercise the DLSIMD_* fallbacks.
func startDaemon(t *testing.T, env []string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(append(os.Environ(), "DLSIMD_RUN_MAIN=1"), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			fmt.Fprintln(&d.log, line)
			d.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never reported its address; log:\n%s", d.logText())
	}
	return d
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// kill SIGKILLs the daemon — the crash under test.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// shutdown stops the daemon gracefully via SIGTERM.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon ignored SIGTERM; log:\n%s", d.logText())
	}
}

func (d *daemon) do(t *testing.T, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v; daemon log:\n%s", method, path, err, d.logText())
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (d *daemon) submit(t *testing.T, spec string) string {
	t.Helper()
	code, body := d.do(t, http.MethodPost, "/v1/jobs", []byte(spec))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

func (d *daemon) state(t *testing.T, id string) string {
	t.Helper()
	code, body := d.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("status %s = %d: %s", id, code, body)
	}
	var snap struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.State
}

func (d *daemon) waitDone(t *testing.T, id string) {
	t.Helper()
	code, body := d.do(t, http.MethodGet, "/v1/jobs/"+id+"?wait=1", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"state": "done"`) {
		t.Fatalf("wait %s = %d: %s", id, code, body)
	}
}

func (d *daemon) metrics(t *testing.T) *telemetry.Exposition {
	t.Helper()
	code, body := d.do(t, http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", code, body)
	}
	exp, err := telemetry.Parse(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	return exp
}

const (
	// fastSpec completes in tens of milliseconds.
	fastSpec = `{"backend":"sim","techniques":["FAC2","SS"],"ns":[4096],"ps":[2],"workload":{"kind":"exponential","p1":1},"h":0.5,"replications":10,"seed":41}`
	// slowSpec keeps one worker busy for seconds — the crash window.
	slowSpec = `{"backend":"sim","techniques":["FAC2","SS"],"ns":[262144],"ps":[2],"workload":{"kind":"exponential","p1":1},"h":0.5,"replications":150,"seed":42}`
)

// TestRestartOverScheduleJournal starts a daemon on a journal written
// by a daemon that still served recurring schedules. Every job in it
// must come back as done, and the schedule records must neither block
// replay nor bring the /v1/schedules routes back.
func TestRestartOverScheduleJournal(t *testing.T) {
	data, err := os.ReadFile("../../internal/journal/testdata/schedules.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(jdir, "journal.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, nil, "-journal", jdir)
	defer d.shutdown(t)

	for _, id := range []string{"j1", "j2", "j3"} {
		if s := d.state(t, id); s != "done" {
			t.Errorf("job %s is %q after restart, want done", id, s)
		}
	}
	if log := d.logText(); !strings.Contains(log, "(12 records recovered)") ||
		!strings.Contains(log, "recovered 3 terminal jobs, re-enqueued 0") {
		t.Errorf("daemon log does not report the full replay:\n%s", log)
	}
	if code, body := d.do(t, http.MethodGet, "/v1/schedules", nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/schedules = %d, want 404: %s", code, body)
	}
	// Startup compaction rewrote the journal before the daemon began
	// listening: one job and one state line per job, no schedule lines.
	compacted, err := os.ReadFile(filepath.Join(jdir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(compacted, []byte("\n")); n != 6 || bytes.Contains(compacted, []byte(`"kind":"schedule`)) {
		t.Errorf("compacted journal has %d lines, want 6 job and state lines:\n%s", n, compacted)
	}
}

// TestCrashRecovery is the hardening acceptance test: a daemon with a
// journal is SIGKILLed with one job running and one queued; the
// restarted daemon restores the finished job's snapshot, re-enqueues
// and completes the interrupted ones, and serves the re-enqueued cached
// spec from the result store with zero backend executions — proven by
// the /metrics cache counters (no miss, no put beyond the interrupted
// job's own).
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons and multi-second campaigns")
	}
	dir := t.TempDir()
	jdir, cdir := filepath.Join(dir, "journal"), filepath.Join(dir, "cache")

	d1 := startDaemon(t, nil, "-journal", jdir, "-cache", cdir, "-jobs", "1", "-metrics")
	fastID := d1.submit(t, fastSpec)
	d1.waitDone(t, fastID)

	slowID := d1.submit(t, slowSpec)
	deadline := time.Now().Add(30 * time.Second)
	for d1.state(t, slowID) != "running" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started; log:\n%s", slowID, d1.logText())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Same spec as the finished job: queued behind the slow one (one
	// executor), and its results are already in the store.
	cachedID := d1.submit(t, fastSpec)
	if cachedID == fastID {
		t.Fatalf("resubmission joined terminal job %s", fastID)
	}
	if s := d1.state(t, cachedID); s != "queued" {
		t.Fatalf("job %s is %q at crash time, want queued (slow spec too fast?)", cachedID, s)
	}
	d1.kill(t)

	// Journal and cache directories survive; the env-fallback spellings
	// of -journal and -metrics configure the restarted daemon.
	d2 := startDaemon(t, []string{"DLSIMD_JOURNAL=" + jdir, "DLSIMD_METRICS=1"},
		"-cache", cdir, "-jobs", "1")
	defer d2.shutdown(t)

	// The finished job is back as a terminal snapshot immediately.
	if s := d2.state(t, fastID); s != "done" {
		t.Fatalf("restored job %s is %q, want done", fastID, s)
	}
	// The interrupted and queued jobs re-ran to completion.
	d2.waitDone(t, cachedID)
	d2.waitDone(t, slowID)

	// The re-enqueued cached spec replayed from the store: exactly one
	// miss+put (the interrupted slow job re-executing) and at least one
	// hit (the cached spec) since restart.
	exp := d2.metrics(t)
	if v, ok := exp.Value("dlsimd_cache_ops", map[string]string{"kind": "put"}); !ok || v != 1 {
		t.Errorf("cache puts after restart = %v, want exactly 1 (the re-run slow job)", v)
	}
	if v, ok := exp.Value("dlsimd_cache_ops", map[string]string{"kind": "miss"}); !ok || v != 1 {
		t.Errorf("cache misses after restart = %v, want exactly 1", v)
	}
	if v, ok := exp.Value("dlsimd_cache_ops", map[string]string{"kind": "hit"}); !ok || v < 1 {
		t.Errorf("cache hits after restart = %v, want >= 1", v)
	}

	// Determinism across the crash: the restored job and its re-enqueued
	// twin stream byte-identical results.
	c1, body1 := d2.do(t, http.MethodGet, "/v1/jobs/"+fastID+"/results?format=jsonl", nil)
	c2, body2 := d2.do(t, http.MethodGet, "/v1/jobs/"+cachedID+"/results?format=jsonl", nil)
	if c1 != http.StatusOK || c2 != http.StatusOK {
		t.Fatalf("results = %d / %d", c1, c2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("restored job and re-enqueued twin streamed different results")
	}
}
