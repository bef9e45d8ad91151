package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeTransport scripts peer responses per call: fn receives the request
// and the 1-based call number.
type fakeTransport struct {
	mu sync.Mutex
	n  int
	fn func(r *http.Request, call int) (*http.Response, error)
}

func (f *fakeTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.n++
	call := f.n
	f.mu.Unlock()
	return f.fn(r, call)
}

func (f *fakeTransport) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func jsonResp(code int, body string) *http.Response {
	return &http.Response{
		StatusCode: code,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

func testPeer(ft *fakeTransport, retries int) *Peer {
	return &Peer{addr: "peer:1", client: &http.Client{Transport: ft}, retries: retries, backoff: time.Millisecond}
}

// TestPeerRetriesConnectionErrors: connection-level failures are re-dialed
// up to the retry budget; the request succeeds if a dial gets through, and
// the forward is counted once, not per attempt.
func TestPeerRetriesConnectionErrors(t *testing.T) {
	ft := &fakeTransport{fn: func(r *http.Request, call int) (*http.Response, error) {
		if call <= 2 {
			return nil, errors.New("connection refused")
		}
		return jsonResp(http.StatusOK, `{}`), nil
	}}
	p := testPeer(ft, 2)
	resp, err := p.Do(context.Background(), http.MethodGet, "/x", "", nil, nil)
	if err != nil {
		t.Fatalf("Do after flaky dials: %v", err)
	}
	resp.Body.Close()
	if got := ft.calls(); got != 3 {
		t.Fatalf("transport calls = %d, want 3 (two failures + success)", got)
	}
	if got := p.forwarded.Load(); got != 1 {
		t.Fatalf("forwarded counter = %d, want 1", got)
	}
	if !p.Up() {
		t.Fatal("peer marked down although the request ultimately succeeded")
	}
}

// TestPeerExhaustedRetriesMarksDown: a request that burns its whole retry
// budget marks the peer down, counts as failed, and subsequent requests
// fail fast with ErrPeerDown without touching the transport.
func TestPeerExhaustedRetriesMarksDown(t *testing.T) {
	ft := &fakeTransport{fn: func(r *http.Request, call int) (*http.Response, error) {
		return nil, errors.New("connection refused")
	}}
	p := testPeer(ft, 2)
	if _, err := p.Do(context.Background(), http.MethodGet, "/x", "", nil, nil); err == nil {
		t.Fatal("Do succeeded against an always-failing transport")
	}
	if p.Up() {
		t.Fatal("peer still up after exhausting retries")
	}
	if got := ft.calls(); got != 3 {
		t.Fatalf("transport calls = %d, want 3 (initial + 2 retries)", got)
	}
	_, err := p.Do(context.Background(), http.MethodGet, "/x", "", nil, nil)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("gated Do error = %v, want ErrPeerDown", err)
	}
	if got := ft.calls(); got != 3 {
		t.Fatalf("gated Do touched the transport (calls = %d)", got)
	}
	if got := p.failed.Load(); got != 2 {
		t.Fatalf("failed counter = %d, want 2 (exhausted + gated)", got)
	}
}

// TestPeerNeverRetriesHTTPResponses: any HTTP response — including a 500
// — is the peer's answer; retrying it could re-run a non-idempotent
// request the peer already executed.
func TestPeerNeverRetriesHTTPResponses(t *testing.T) {
	ft := &fakeTransport{fn: func(r *http.Request, call int) (*http.Response, error) {
		return jsonResp(http.StatusInternalServerError, `{"error":"boom"}`), nil
	}}
	p := testPeer(ft, 3)
	resp, err := p.Do(context.Background(), http.MethodPost, "/x", "application/json", []byte(`{}`), nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 passed through", resp.StatusCode)
	}
	if got := ft.calls(); got != 1 {
		t.Fatalf("transport calls = %d, want exactly 1 (no retry on HTTP responses)", got)
	}
}

// TestPeerNoRetryOnCancel: the caller giving up is not a peer failure —
// no retry, the peer keeps its health state, and no failure is counted,
// so a client abandoning a slow proxied solve cannot gate a healthy
// owner.
func TestPeerNoRetryOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Surface the canceled-context error shape the http client produces.
	ft := &fakeTransport{fn: func(r *http.Request, call int) (*http.Response, error) {
		cancel()
		return nil, fmt.Errorf("round trip: %w", context.Canceled)
	}}
	p := testPeer(ft, 5)
	if _, err := p.Do(ctx, http.MethodGet, "/x", "", nil, nil); err == nil {
		t.Fatal("Do succeeded with canceled context")
	}
	if got := ft.calls(); got != 1 {
		t.Fatalf("transport calls = %d, want 1 (cancellation is not retryable)", got)
	}
	if !p.Up() {
		t.Fatal("peer marked down because its caller gave up")
	}
	if got := p.failed.Load(); got != 0 {
		t.Fatalf("failed counter = %d, want 0 (a cancellation is not a forward failure)", got)
	}
}

// TestPeerProbeRecovers: a down peer comes back through a successful
// probe (the only path that lifts the gate), and a 503 probe — a
// draining node — keeps it down.
func TestPeerProbeRecovers(t *testing.T) {
	status := http.StatusServiceUnavailable
	ft := &fakeTransport{fn: func(r *http.Request, call int) (*http.Response, error) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe path = %q, want /healthz", r.URL.Path)
		}
		return jsonResp(status, `{}`), nil
	}}
	p := testPeer(ft, 0)
	p.MarkDown()
	if p.probe(context.Background()) {
		t.Fatal("probe against a draining (503) peer reported up")
	}
	if p.Up() {
		t.Fatal("peer up after 503 probe")
	}
	status = http.StatusOK
	if !p.probe(context.Background()) {
		t.Fatal("probe against a healthy peer reported down")
	}
	if !p.Up() {
		t.Fatal("successful probe did not lift the health gate")
	}
}

// testNode builds a 2-member node over a scripted transport.
func testNode(t *testing.T, ft *fakeTransport) *Node {
	t.Helper()
	node, err := New(Options{
		Self:          "self:1",
		Members:       []string{"self:1", "peer:1"},
		Retries:       -1,
		ProbeInterval: time.Hour, // keep the prober out of call counts
		Transport:     ft,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node
}

// TestNodeStats: the snapshot carries the ring shape and per-peer
// counters the metrics endpoint renders.
func TestNodeStats(t *testing.T) {
	ft := &fakeTransport{fn: func(r *http.Request, call int) (*http.Response, error) {
		return jsonResp(http.StatusOK, `{}`), nil
	}}
	node := testNode(t, ft)
	st := node.Stats()
	if st.Self != "self:1" || len(st.Members) != 2 || st.VNodes != defaultVNodes {
		t.Fatalf("Stats = %+v, want self:1 over 2 members at default vnodes", st)
	}
	if len(st.Peers) != 1 || st.Peers[0].Addr != "peer:1" || !st.Peers[0].Up {
		t.Fatalf("peer stats = %+v, want one up peer:1", st.Peers)
	}
}
