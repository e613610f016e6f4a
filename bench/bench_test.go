package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkDoc is the part of BENCHMARK.json this program must agree
// with.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkDocMatchesProgram checks that BENCHMARK.json names
// exactly the workloads and metrics this program runs and emits, with
// the same units, and that every name follows the naming rule.
func TestBenchmarkDocMatchesProgram(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one non-empty line", w.Name)
		}
	}
	want := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program emits %d", kind, len(names), len(defs))
		}
		for i := range names {
			checkName(names[i])
			if i < len(defs) && (names[i] != defs[i].name || units[i] != defs[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], defs[i].name, defs[i].unit)
			}
		}
	}
	var names, units []string
	for _, m := range doc.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	want("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range doc.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	want("per_layer", perLayer, names, units)
}

// smokeScale shrinks every workload so the smoke tests stay fast.
const smokeScale = 1000

func smokeOptions(t *testing.T, trace bool, pins map[string]string) options {
	tmp := t.TempDir()
	return options{seed: 1, seconds: 0.01, trace: trace, traceOut: filepath.Join(tmp, "trace.json"),
		scale: smokeScale, tmp: filepath.Join(tmp, "run"), pins: pins}
}

// TestSmoke runs every workload untraced and traced at a tiny size and
// checks that its outputs pass and that it emits exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(context.Background(), wl, smokeOptions(t, trace, nil), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := make(map[string]string)
			if trace {
				for _, m := range doc.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range doc.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, v := range res.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: emits %s, which BENCHMARK.json does not name", wl.name, trace, name)
				} else if v.Unit != unit {
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", wl.name, trace, name, v.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: does not emit %s", wl.name, trace, name)
				}
			}
		}
	}
}

// TestTamperedPinFails checks that a pinned digest that does not match
// the output fails the run.
func TestTamperedPinFails(t *testing.T) {
	for _, wl := range workloads {
		seed := uint64(1)
		if wl.name == "tzen-msg" {
			seed = 0
		}
		pins := map[string]string{pinKey(wl.name, seed, smokeScale, 0): strings.Repeat("0", 64)}
		res, err := run(context.Background(), wl, smokeOptions(t, false, pins), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: tampered pin passed: correct %v, %d failed", wl.name, res.Correct, res.Failed)
		}
	}
}
