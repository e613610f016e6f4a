package telemetry

import (
	"bufio"
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	r.WriteTo(w)
	w.Flush()
	return buf.String()
}

// TestExpositionShape: every family renders HELP+TYPE and deterministic,
// sorted series, and the output round-trips through the in-repo parser.
func TestExpositionShape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(3)
	cv := r.CounterVec("test_http_total", "labeled counter", "route", "code")
	cv.With("/v1/jobs", "200").Add(7)
	cv.With("/v1/jobs", "400").Inc()
	cv.With("/healthz", "200").Inc()
	r.GaugeFunc("test_depth", "a gauge", func() float64 { return 2.5 })
	r.GaugeFunc("test_now", "sampled gauge", func() float64 { return 42 })
	r.GaugeSetFunc("test_jobs", "jobs by state", []string{"state"}, func() []Sample {
		return []Sample{{Values: []string{"running"}, V: 1}, {Values: []string{"queued"}, V: 3}}
	})
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	out := render(r)
	if out != render(r) {
		t.Fatal("two idle scrapes differ")
	}

	e, err := Parse([]byte(out))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, out)
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"test_total", nil, 3},
		{"test_http_total", map[string]string{"route": "/v1/jobs", "code": "200"}, 7},
		{"test_http_total", map[string]string{"route": "/healthz"}, 1},
		{"test_depth", nil, 2.5},
		{"test_now", nil, 42},
		{"test_jobs", map[string]string{"state": "queued"}, 3},
		{"test_latency_seconds_bucket", map[string]string{"le": "0.1"}, 1},
		{"test_latency_seconds_bucket", map[string]string{"le": "1"}, 2},
		{"test_latency_seconds_bucket", map[string]string{"le": "+Inf"}, 3},
		{"test_latency_seconds_count", nil, 3},
	}
	for _, c := range checks {
		got, ok := e.Value(c.name, c.labels)
		if !ok || got != c.want {
			t.Errorf("%s%v = %v (present %v), want %v", c.name, c.labels, got, ok, c.want)
		}
	}
	if sum, _ := e.Value("test_latency_seconds_sum", nil); sum < 5.54 || sum > 5.56 {
		t.Errorf("histogram sum = %v, want ≈5.55", sum)
	}
	if e.Types["test_total"] != "counter" || e.Types["test_latency_seconds"] != "histogram" {
		t.Errorf("TYPE lines missing or wrong: %v", e.Types)
	}

	// Families sorted by name; series within a vec sorted by labels.
	idx := func(s string) int { return strings.Index(out, s) }
	if !(idx("# TYPE test_depth") < idx("# TYPE test_http_total") && idx("# TYPE test_http_total") < idx("# TYPE test_total")) {
		t.Error("families not sorted by name")
	}
	if !(idx(`route="/healthz"`) < idx(`code="200",le=`) || idx(`route="/healthz"`) < idx(`route="/v1/jobs"`)) {
		t.Error("vec series not sorted by label values")
	}
}

// TestHandler: the HTTP endpoint serves the exposition with the
// canonical content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if _, err := Parse(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestLabelEscaping: quotes, backslashes and newlines in label values
// survive a render→parse round trip.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	ugly := `quo"te\back` + "\nnewline"
	r.CounterVec("test_escape_total", "x", "v").With(ugly).Inc()
	e, err := Parse([]byte(render(r)))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := e.Value("test_escape_total", map[string]string{"v": ugly}); !ok || got != 1 {
		t.Fatalf("escaped label lost: %v %v", got, ok)
	}
}

// TestParseRejectsMalformed: the validator is strict.
func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_value_here",
		"1leading_digit 3",
		`m{l="unterminated} 1`,
		`m{l=unquoted} 1`,
		"m not_a_number",
		"# TYPE m flavor",
		`m{l="x"\q"} 1`,
	}
	for _, line := range bad {
		if _, err := Parse([]byte(line + "\n")); err == nil {
			t.Errorf("accepted malformed line %q", line)
		}
	}
	ok := "# HELP m help text\n# TYPE m counter\nm 1\nm2{a=\"b\"} 2.5 1700000000\n"
	if _, err := Parse([]byte(ok)); err != nil {
		t.Errorf("rejected valid exposition: %v", err)
	}
}

// TestConcurrentUpdates: hammer counters and histograms from many
// goroutines while scraping; totals must come out exact (run with -race).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c_total", "x")
	cv := r.CounterVec("test_cv_total", "x", "k")
	h := r.Histogram("test_h", "x", []float64{10, 100})
	var wg sync.WaitGroup
	const gor, per = 8, 1000
	for i := 0; i < gor; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				c.Inc()
				cv.With([]string{"a", "b"}[n%2]).Inc()
				h.Observe(float64(n % 200))
				if n%100 == 0 {
					render(r)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != gor*per {
		t.Fatalf("counter %d, want %d", c.Value(), gor*per)
	}
	if h.Count() != gor*per {
		t.Fatalf("histogram count %d, want %d", h.Count(), gor*per)
	}
	e, err := Parse([]byte(render(r)))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := e.Value("test_cv_total", map[string]string{"k": "a"})
	b, _ := e.Value("test_cv_total", map[string]string{"k": "b"})
	if int64(a+b) != gor*per {
		t.Fatalf("vec total %v, want %d", a+b, gor*per)
	}
}
