package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/campaign"
)

func TestEngineDeterministicAcrossSeeds(t *testing.T) {
	mk := func(seed uint64) []bool {
		e, err := NewEngine(seed, Rule{Fault: FaultReset, P: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			_, out[i] = e.Decide(http.MethodGet, "/v1/jobs/x/results")
		}
		return out
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-draw decision streams")
	}
}

func TestEngineFirstNAndMatching(t *testing.T) {
	e, err := NewEngine(1,
		Rule{Name: "submit-reset", Method: http.MethodPost, Path: "/v1/jobs", Fault: FaultReset, FirstN: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Non-matching method and path never fire.
	if _, ok := e.Decide(http.MethodGet, "/v1/jobs"); ok {
		t.Fatal("GET matched a POST-only rule")
	}
	if _, ok := e.Decide(http.MethodPost, "/v1/health"); ok {
		t.Fatal("path without substring matched")
	}
	for i := 0; i < 2; i++ {
		if _, ok := e.Decide(http.MethodPost, "/v1/jobs"); !ok {
			t.Fatalf("first_n request %d did not fire", i)
		}
	}
	if _, ok := e.Decide(http.MethodPost, "/v1/jobs"); ok {
		t.Fatal("fired beyond first_n with p=0")
	}
	if got := e.Counts()["submit-reset"]; got != 2 {
		t.Fatalf("counts = %d, want 2", got)
	}
	if got := e.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestRuleValidation(t *testing.T) {
	bad := []Rule{
		{Fault: "explode", P: 1},
		{Fault: FaultReset, P: 1.5},
		{Fault: FaultReset},         // can never fire
		{Fault: FaultLatency, P: 1}, // latency without duration
		{Fault: FaultTruncate, FirstN: 1, After: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %d validated but should not have", i)
		}
	}
	if err := (Rule{Fault: FaultLatency, P: 0.5, Latency: Duration(time.Millisecond)}).Validate(); err != nil {
		t.Errorf("good rule rejected: %v", err)
	}
}

func TestDurationJSONAndParseRules(t *testing.T) {
	var r Rule
	if err := json.Unmarshal([]byte(`{"fault":"latency","p":1,"latency":"150ms"}`), &r); err != nil {
		t.Fatal(err)
	}
	if time.Duration(r.Latency) != 150*time.Millisecond {
		t.Fatalf("latency = %v", time.Duration(r.Latency))
	}
	if err := json.Unmarshal([]byte(`{"fault":"latency","p":1,"latency":2}`), &r); err != nil {
		t.Fatal(err)
	}
	if time.Duration(r.Latency) != 2*time.Second {
		t.Fatalf("numeric latency = %v", time.Duration(r.Latency))
	}
	out, err := json.Marshal(Duration(time.Second + 500*time.Millisecond))
	if err != nil || string(out) != `"1.5s"` {
		t.Fatalf("marshal = %s, %v", out, err)
	}

	rules, err := ParseRules([]byte(`[{"fault":"reset","p":0.1},{"fault":"error","first_n":3,"path":"/results"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[1].FirstN != 3 {
		t.Fatalf("rules = %+v", rules)
	}
	if _, err := ParseRules([]byte(`[{"fault":"reset","p":0.1,"nope":true}]`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseRules([]byte(`[{"fault":"warp","p":1}]`)); err == nil {
		t.Fatal("unknown fault accepted")
	}
}

// doerFunc adapts a function to the Doer seam.
type doerFunc func(*http.Request) (*http.Response, error)

func (f doerFunc) Do(r *http.Request) (*http.Response, error) { return f(r) }

func okJSON(body string) doerFunc {
	return func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(body)),
			Request:    r,
		}, nil
	}
}

func TestInjectorFaults(t *testing.T) {
	req := func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "http://node/v1/jobs/x/results", nil)
	}

	t.Run("reset", func(t *testing.T) {
		e, _ := NewEngine(1, Rule{Fault: FaultReset, FirstN: 1})
		in := &Injector{Next: okJSON("{}"), Engine: e}
		if _, err := in.Do(req()); err == nil {
			t.Fatal("reset fault returned a response")
		}
	})

	t.Run("error", func(t *testing.T) {
		e, _ := NewEngine(1, Rule{Fault: FaultError5xx, FirstN: 1})
		in := &Injector{Next: okJSON("{}"), Engine: e}
		resp, err := in.Do(req())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var env campaign.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != campaign.CodeInternal {
			t.Fatalf("code = %q", env.Error.Code)
		}
	})

	t.Run("truncate", func(t *testing.T) {
		payload := strings.Repeat("x", 64)
		e, _ := NewEngine(1, Rule{Fault: FaultTruncate, FirstN: 1, After: 10})
		in := &Injector{Next: okJSON(payload), Engine: e}
		resp, err := in.Do(req())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("read err = %v, want unexpected EOF", err)
		}
		if len(got) != 10 {
			t.Fatalf("read %d bytes before truncation, want 10", len(got))
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		payload := strings.Repeat("x", 64)
		e, _ := NewEngine(1, Rule{Fault: FaultCorrupt, FirstN: 1, After: 10})
		in := &Injector{Next: okJSON(payload), Engine: e}
		resp, err := in.Do(req())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payload) {
			t.Fatalf("corrupt changed length: %d != %d", len(got), len(payload))
		}
		if got[10] != 0x00 {
			t.Fatalf("byte 10 = %#x, want 0x00", got[10])
		}
		for i, b := range got {
			if i != 10 && b != 'x' {
				t.Fatalf("byte %d damaged unexpectedly: %#x", i, b)
			}
		}
	})

	t.Run("latency", func(t *testing.T) {
		e, _ := NewEngine(1, Rule{Fault: FaultLatency, FirstN: 1, Latency: Duration(10 * time.Millisecond)})
		in := &Injector{Next: okJSON("{}"), Engine: e}
		start := time.Now()
		resp, err := in.Do(req())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
			t.Fatalf("latency fault returned after %v", elapsed)
		}
	})

	t.Run("blackhole", func(t *testing.T) {
		e, _ := NewEngine(1, Rule{Fault: FaultBlackhole, FirstN: 1})
		in := &Injector{Next: doerFunc(func(r *http.Request) (*http.Response, error) {
			t.Error("blackholed request reached Next")
			return okJSON("{}")(r)
		}), Engine: e}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		resp, err := in.Do(req().WithContext(ctx))
		if err == nil {
			resp.Body.Close()
			t.Fatal("blackhole fault returned a response")
		}
		if ctx.Err() == nil {
			t.Fatalf("Do returned %v before the request context ended", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the context's error", err)
		}
	})

	t.Run("passthrough", func(t *testing.T) {
		e, _ := NewEngine(1, Rule{Fault: FaultReset, FirstN: 1, Path: "/never-matched"})
		in := &Injector{Next: okJSON(`{"ok":true}`), Engine: e}
		resp, err := in.Do(req())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if string(body) != `{"ok":true}` {
			t.Fatalf("body = %q", body)
		}
	})
}

// proxied starts upstream behind a NewProxy armed with rules and
// returns the proxy's URL and the number of requests upstream has seen.
func proxied(t *testing.T, upstream http.HandlerFunc, rules ...Rule) (string, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	back := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		upstream(w, r)
	}))
	t.Cleanup(back.Close)
	e, err := NewEngine(7, rules...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(back.URL, e)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: the front closes first, and
	// Close waits for every proxied request, blackholed ones included.
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return front.URL, &hits
}

// fetch GETs url and returns the response with its body read to the
// end or to the first read error, which it also returns.
func fetch(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func decodeEnvelope(t *testing.T, body []byte) campaign.ErrorBody {
	t.Helper()
	var env campaign.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope %q: %v", body, err)
	}
	return env.Error
}

func TestProxyForwardsAndInjects(t *testing.T) {
	// A 5000-byte result stream with no NUL in it, so a corrupted byte
	// is visible, and a short JSON echo of the path everywhere else.
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	serve := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if strings.HasSuffix(r.URL.Path, "/results") {
			_, _ = w.Write(payload)
			return
		}
		_, _ = io.WriteString(w, `{"path":"`+r.URL.Path+`"}`)
	}
	const results = "/v1/jobs/j1/results"

	t.Run("reset", func(t *testing.T) {
		url, hits := proxied(t, serve, Rule{Fault: FaultReset, FirstN: 1})
		resp, err := http.Get(url + "/v1/jobs")
		if err == nil {
			resp.Body.Close()
			t.Fatalf("reset fault answered %d", resp.StatusCode)
		}
		if n := hits.Load(); n != 0 {
			t.Fatalf("upstream saw %d requests, want 0", n)
		}
	})

	t.Run("blackhole", func(t *testing.T) {
		url, hits := proxied(t, serve, Rule{Fault: FaultBlackhole, FirstN: 1})
		const deadline = 150 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("blackhole answered %d", resp.StatusCode)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the client's deadline", err)
		}
		if elapsed := time.Since(start); elapsed < deadline {
			t.Fatalf("blackhole let go after %v, before the %v deadline", elapsed, deadline)
		}
		if n := hits.Load(); n != 0 {
			t.Fatalf("upstream saw %d requests, want 0", n)
		}
	})

	t.Run("latency", func(t *testing.T) {
		const delay = 50 * time.Millisecond
		url, _ := proxied(t, serve, Rule{Fault: FaultLatency, FirstN: 1, Latency: Duration(delay)})
		start := time.Now()
		resp, body, err := fetch(t, url+results)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed < delay {
			t.Fatalf("reply after %v, before the %v latency", elapsed, delay)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
			t.Fatalf("status %d, body intact %v", resp.StatusCode, bytes.Equal(body, payload))
		}
	})

	t.Run("error", func(t *testing.T) {
		url, hits := proxied(t, serve, Rule{Fault: FaultError5xx, FirstN: 1})
		resp, body, err := fetch(t, url+"/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
		if e := decodeEnvelope(t, body); e.Code != campaign.CodeInternal {
			t.Fatalf("code = %q, want %q", e.Code, campaign.CodeInternal)
		}
		if n := hits.Load(); n != 0 {
			t.Fatalf("upstream saw %d requests, want 0", n)
		}
	})

	t.Run("truncate", func(t *testing.T) {
		for _, after := range []int64{1, 100, 4096} {
			t.Run(fmt.Sprintf("after=%d", after), func(t *testing.T) {
				url, _ := proxied(t, serve, Rule{Fault: FaultTruncate, FirstN: 1, After: after})
				_, body, err := fetch(t, url+results)
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("read err = %v, want unexpected EOF", err)
				}
				if !bytes.Equal(body, payload[:after]) {
					t.Fatalf("delivered %d bytes, want the first %d intact", len(body), after)
				}
			})
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		const after = 100
		url, _ := proxied(t, serve, Rule{Fault: FaultCorrupt, FirstN: 1, After: after})
		_, body, err := fetch(t, url+results)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != len(payload) {
			t.Fatalf("corrupt changed length: %d != %d", len(body), len(payload))
		}
		for i, b := range body {
			want := payload[i]
			if i == after {
				want = 0x00
			}
			if b != want {
				t.Fatalf("byte %d = %#x, want %#x", i, b, want)
			}
		}
	})

	t.Run("passthrough", func(t *testing.T) {
		url, hits := proxied(t, serve, Rule{Fault: FaultError5xx, FirstN: 1, Path: "/v1/jobs"})
		// The first /v1/jobs request spends the rule.
		if resp, _, err := fetch(t, url+"/v1/jobs"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("first request: status %d, err %v; want 503", resp.StatusCode, err)
		}
		resp, body, err := fetch(t, url+"/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != `{"path":"/v1/jobs"}` {
			t.Fatalf("forwarded body = %q", body)
		}
		if resp.Header.Get("Content-Type") != "application/json" {
			t.Fatal("upstream headers not forwarded")
		}
		if _, body, err := fetch(t, url+results); err != nil || !bytes.Equal(body, payload) {
			t.Fatalf("result stream: %d bytes, err %v; want %d intact", len(body), err, len(payload))
		}
		if n := hits.Load(); n != 2 {
			t.Fatalf("upstream saw %d requests, want 2", n)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		dead := httptest.NewServer(http.NotFoundHandler())
		dead.Close()
		e, err := NewEngine(7)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProxy(dead.URL, e)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(p)
		defer front.Close()
		resp, body, err := fetch(t, front.URL+"/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("status = %d, want 502", resp.StatusCode)
		}
		env := decodeEnvelope(t, body)
		if env.Code != campaign.CodeInternal || !strings.HasPrefix(env.Message, "chaos: upstream unreachable: ") {
			t.Fatalf("envelope = %+v", env)
		}
	})

	t.Run("target", func(t *testing.T) {
		e, err := NewEngine(7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewProxy("not a url at all\x7f", e); err == nil {
			t.Fatal("bad target accepted")
		}
		if _, err := NewProxy("/just/a/path", e); err == nil {
			t.Fatal("target without host accepted")
		}
	})
}
