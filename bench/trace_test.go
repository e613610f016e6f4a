package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two children overlapping each other on [20, 30): the union,
		// not the sum, is subtracted.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A grandchild nested in b counts against b, not the root.
		{ID: 4, Parent: 3, Name: "c", Start: 25, End: 35},
		// A child reaching past its parent's end is clipped to it.
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		// A child entirely outside its parent removes nothing.
		{ID: 6, Parent: 2, Name: "e", Start: 200, End: 210},
	}
	want := map[int64]int64{
		1: 100 - 40 - 10, // [10, 50) and [90, 100)
		2: 20,
		3: 30 - 10,
		4: 10,
		5: 30,
		6: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

// TestRequestIDCrossesHTTP checks that one request's spans share its id
// and name their causes: the client span is a child of the campaign
// span it ran under, the handler span a child of the client span, and a
// store call made while handling a child of the handler span.
func TestRequestIDCrossesHTTP(t *testing.T) {
	tr := NewTracer()
	store := &tracedStore{inner: nopStore{}, tr: tr}
	handler := &tracedHandler{tr: tr, node: "a", next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _, _ = store.Get(r.Context(), "ab")
		w.WriteHeader(http.StatusTeapot)
	})}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	doer := &tracedDoer{next: srv.Client(), tr: tr, node: "a"}

	const req = 42
	campaignID := tr.ID()
	ctx := withSpan(context.Background(), campaignID, req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := doer.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	byName := make(map[string]Span)
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	cl, sv, ca := byName["client.status"], byName["service.status"], byName["cache.get"]
	if cl.ID == 0 || sv.ID == 0 || ca.ID == 0 {
		t.Fatalf("missing spans: %+v", byName)
	}
	for _, s := range []Span{cl, sv, ca} {
		if s.Req != req {
			t.Errorf("%s: request id %d, want %d", s.Name, s.Req, req)
		}
	}
	if cl.Parent != campaignID || sv.Parent != cl.ID || ca.Parent != sv.ID {
		t.Errorf("parents: client %d (want %d), service %d (want %d), cache %d (want %d)",
			cl.Parent, campaignID, sv.Parent, cl.ID, ca.Parent, sv.ID)
	}
	if handler.requests.Load() != 1 || handler.errors.Load() != 1 || doer.attempts.Load() != 1 {
		t.Errorf("counters: requests %d, errors %d, attempts %d; want 1, 1, 1",
			handler.requests.Load(), handler.errors.Load(), doer.attempts.Load())
	}
}

type nopStore struct{}

func (nopStore) Get(context.Context, string) ([]byte, bool, error) { return nil, false, nil }
func (nopStore) Put(context.Context, string, []byte) error         { return nil }
