// Package telemetry is a dependency-free metrics registry speaking the
// Prometheus text exposition format (version 0.0.4). It exists because
// the module deliberately has zero external requires: the subset of the
// format dlsimd needs — counters, gauges, histograms, with labels — is
// small enough to hand-roll, and a scrape must never perturb the
// deterministic simulation results it observes.
//
// Metrics are registered once at startup and updated via atomics; a
// scrape takes a point-in-time snapshot and renders families sorted by
// name with series sorted by label values, so consecutive scrapes of an
// idle process are byte-identical. The package also ships Parse, a
// validating reader for the same format, used by the CI smoke check and
// the integration tests to assert a live daemon's /metrics output
// actually parses without external tooling.
package telemetry

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefDurationBuckets are histogram bounds (seconds) sized for request
// and campaign latencies: 1ms to ~100s in roughly 3x steps.
var DefDurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// Registry holds named metric families. All methods are safe for
// concurrent use; registering the same name twice panics (registration
// is startup-time wiring, not a runtime path).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted lazily at scrape time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string

	mu     sync.Mutex
	series map[string]renderer // by canonical label-value key
	order  []string            // sorted lazily at scrape time

	sample func() []Sample // for *Func families; nil otherwise
}

// renderer writes one series' sample lines.
type renderer interface {
	render(w *bufio.Writer, name, labelstr string)
}

func (r *Registry) register(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, series: make(map[string]renderer)}
	r.families[name] = f
	r.names = nil
	return f
}

// Counter is a monotonically increasing sample.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be ≥ 0 for the exposition to stay a counter).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) render(w *bufio.Writer, name, labelstr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelstr, c.v.Load())
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	c := &Counter{}
	f.series[""] = c
	return c
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labels)}
}

// With returns (creating on first use) the counter for the given label
// values, which must match the registered label names in order.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.f.labels) {
		panic("telemetry: label count mismatch for " + v.f.name)
	}
	key := labelString(v.f.labels, values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c, ok := v.f.series[key]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	v.f.series[key] = c
	v.f.order = nil
	return c
}

// Sample is one series produced by a *Func family at scrape time.
type Sample struct {
	Values []string // label values, matching the registered label names
	V      float64
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.sample = func() []Sample { return []Sample{{V: fn()}} }
}

// GaugeSetFunc registers a labeled gauge family whose full series set
// is computed at scrape time — e.g. jobs-by-state sampled from the
// manager. Series render sorted by label values.
func (r *Registry) GaugeSetFunc(name, help string, labels []string, fn func() []Sample) {
	f := r.register(name, help, "gauge", labels)
	f.sample = fn
}

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound; +Inf is implied by count
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) render(w *bufio.Writer, name, labelstr string) {
	// _bucket series carry an le label appended after the series labels.
	inner := strings.TrimSuffix(strings.TrimPrefix(labelstr, "{"), "}")
	for i, b := range h.bounds {
		le := formatFloat(b)
		lbl := `{le="` + le + `"}`
		if inner != "" {
			lbl = "{" + inner + `,le="` + le + `"}`
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl, h.counts[i].Load())
	}
	lbl := `{le="+Inf"}`
	if inner != "" {
		lbl = "{" + inner + `,le="+Inf"}`
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl, h.count.Load())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelstr, formatFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelstr, h.count.Load())
}

// Histogram registers an unlabeled histogram with the given bucket
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	h := newHistogram(buckets)
	f.series[""] = h
	return h
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, "histogram", labels), buckets}
}

// With returns (creating on first use) the histogram for the given
// label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.f.labels) {
		panic("telemetry: label count mismatch for " + v.f.name)
	}
	key := labelString(v.f.labels, values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if h, ok := v.f.series[key]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(v.buckets)
	v.f.series[key] = h
	v.f.order = nil
	return h
}

// WriteTo renders the full exposition, families sorted by name and
// series sorted by label values.
func (r *Registry) WriteTo(w *bufio.Writer) {
	r.mu.Lock()
	if r.names == nil {
		for name := range r.families {
			r.names = append(r.names, name)
		}
		sort.Strings(r.names)
	}
	names := r.names
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		if f.sample != nil {
			samples := f.sample()
			sort.Slice(samples, func(i, j int) bool {
				return labelString(f.labels, samples[i].Values) < labelString(f.labels, samples[j].Values)
			})
			for _, s := range samples {
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.Values), formatFloat(s.V))
			}
			continue
		}
		f.mu.Lock()
		if f.order == nil {
			for k := range f.series {
				f.order = append(f.order, k)
			}
			sort.Strings(f.order)
		}
		order := append([]string(nil), f.order...)
		series := make([]renderer, len(order))
		for i, k := range order {
			series[i] = f.series[k]
		}
		f.mu.Unlock()
		for i, s := range series {
			s.render(w, f.name, order[i])
		}
	}
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		r.WriteTo(bw)
		bw.Flush()
	})
}

// labelString renders {a="x",b="y"} for the given names and values, or
// "" when there are no labels. It is the canonical series key, so equal
// label values always address the same series.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value: integral floats without an
// exponent ("42"), everything else in Go's shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
