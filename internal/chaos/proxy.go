// Fault injection over TCP: a reverse proxy in front of one real daemon
// whose upstream transport is an Injector, so a chaos profile damages
// traffic through the same code whether the fleet under test is three
// OS processes or three in-process clients.

package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"

	"repro/campaign"
)

// NewProxy returns a reverse proxy that forwards to target (e.g.
// "http://127.0.0.1:8080") through an Injector armed with engine. A
// fault the Injector makes up as an error (reset, blackhole, latency
// cut short) aborts the client's connection without a response; a real
// upstream failure answers 502 with an error envelope.
func NewProxy(target string, engine *Engine) (http.Handler, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad target %q: %w", target, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("chaos: target %q needs scheme and host", target)
	}
	in := &Injector{Next: doFunc(http.DefaultTransport.RoundTrip), Engine: engine}
	return &httputil.ReverseProxy{
		Rewrite:   func(r *httputil.ProxyRequest) { r.SetURL(u) },
		Transport: doFunc(in.Do),
		// Copying a truncated body fails by design; the proxy aborts
		// the connection then, and the failure is not worth a log line.
		ErrorLog: log.New(io.Discard, "", 0),
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			if errors.Is(err, errInjected) {
				panic(http.ErrAbortHandler)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			_ = json.NewEncoder(w).Encode(campaign.ErrorEnvelope{Error: campaign.ErrorBody{
				Code:    campaign.CodeInternal,
				Message: fmt.Sprintf("chaos: upstream unreachable: %v", err),
			}})
		},
	}, nil
}

// doFunc is both a Doer and an http.RoundTripper: the Injector runs
// http.DefaultTransport as its Next, and the proxy runs the Injector as
// its Transport.
type doFunc func(*http.Request) (*http.Response, error)

func (f doFunc) Do(r *http.Request) (*http.Response, error)        { return f(r) }
func (f doFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
