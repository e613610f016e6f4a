// Injector is the one place faults are made. It sits between the client
// SDK and its HTTP transport (via client.WithDoer), so unit tests
// exercise retry, dedup, and stream-integrity handling without binding
// a single port, and it is the upstream transport of NewProxy, which
// puts the same faults on the wire.

package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"repro/campaign"
)

// Doer is the request-executing seam, shape-compatible with
// *http.Client and with client.Doer (declared locally to keep this
// package independent of the SDK).
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// errInjected marks the errors Injector.Do makes up, which NewProxy
// turns into an aborted connection instead of a 502. Its text is the
// prefix those errors already carried.
var errInjected = errors.New("chaos")

// Injector is a Doer that injects faults per its Engine before (or
// into) the responses of the wrapped Doer. Plug it into the client SDK
// with client.WithDoer.
type Injector struct {
	// Next executes requests that the engine lets through (typically
	// an *http.Client).
	Next Doer
	// Engine decides which requests to damage and how.
	Engine *Engine
}

// Do applies at most one fault to the request. Transport-level faults
// (reset, blackhole) return errors without reaching Next; error faults
// synthesize a 503 envelope; stream faults forward the request and
// damage the response body on the way back.
func (in *Injector) Do(req *http.Request) (*http.Response, error) {
	rule, inject := in.Engine.Decide(req.Method, req.URL.Path)
	if !inject {
		return in.Next.Do(req)
	}
	switch rule.Fault {
	case FaultReset:
		closeBody(req)
		return nil, fmt.Errorf("%w: injected reset: %s %s: %w", errInjected, req.Method, req.URL.Path, syscall.ECONNRESET)
	case FaultBlackhole:
		closeBody(req)
		<-req.Context().Done()
		return nil, fmt.Errorf("%w: blackholed: %s %s: %w", errInjected, req.Method, req.URL.Path, req.Context().Err())
	case FaultError5xx:
		closeBody(req)
		return syntheticError(req), nil
	case FaultLatency:
		t := time.NewTimer(time.Duration(rule.Latency))
		defer t.Stop()
		select {
		case <-t.C:
		case <-req.Context().Done():
			closeBody(req)
			return nil, fmt.Errorf("%w: latency fault: %s %s: %w", errInjected, req.Method, req.URL.Path, req.Context().Err())
		}
		return in.Next.Do(req)
	case FaultTruncate, FaultCorrupt:
		resp, err := in.Next.Do(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &faultReader{rc: resp.Body, fault: rule.Fault, after: rule.After}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	default:
		return in.Next.Do(req)
	}
}

// faultReader damages a response body in flight: truncate ends the
// stream with io.ErrUnexpectedEOF after `after` bytes (what a consumer
// of a half-dead connection sees); corrupt zeroes the byte at offset
// `after` and lets the rest through, leaving decoders to trip over the
// NUL.
type faultReader struct {
	rc      io.ReadCloser
	fault   Fault
	after   int64
	read    int64
	damaged bool
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if fr.fault == FaultTruncate {
		remain := fr.after - fr.read
		if remain <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		if int64(len(p)) > remain {
			p = p[:remain]
		}
	}
	n, err := fr.rc.Read(p)
	if fr.fault == FaultCorrupt && !fr.damaged && fr.read+int64(n) > fr.after {
		p[fr.after-fr.read] = 0x00
		fr.damaged = true
	}
	fr.read += int64(n)
	return n, err
}

func (fr *faultReader) Close() error { return fr.rc.Close() }

// syntheticError fabricates a 503 with a well-formed error envelope,
// the document a failing daemon would produce, attributed to the
// request for error reporting. Code "internal" keeps it on the client's
// retryable path.
func syntheticError(req *http.Request) *http.Response {
	body, _ := json.Marshal(campaign.ErrorEnvelope{Error: campaign.ErrorBody{
		Code:    campaign.CodeInternal,
		Message: "chaos: injected server error",
	}})
	return &http.Response{
		Status:        http.StatusText(http.StatusServiceUnavailable),
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
}
