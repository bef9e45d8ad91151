package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Forwarding headers. ForwardedFromHeader marks a request as already
// routed once — a node receiving it always serves locally, so a ring
// disagreement between nodes (mid-rollout config skew) degrades to a 404
// instead of a forwarding loop. NodeHeader is informational: which node's
// registry/scheduler actually served the request.
const (
	ForwardedFromHeader = "X-Mincut-Forwarded-From"
	NodeHeader          = "X-Mincut-Node"
)

// ErrPeerDown reports a forward short-circuited by health gating: the
// peer's last probe (or last forward) failed and no probe has succeeded
// since, so dialing it again would only burn the caller's latency budget.
var ErrPeerDown = errors.New("cluster: peer is down")

// Peer is one remote member: its address, a shared HTTP client, health
// state, and the per-peer forwarding counters exported on /metrics.
//
// Health is optimistic: a peer starts up, is marked down when a forward
// or probe fails at the connection level, and is marked up again by the
// next successful probe. While down, forwards fail fast with ErrPeerDown.
type Peer struct {
	addr    string
	client  *http.Client
	retries int           // re-dials after a connection-level failure
	backoff time.Duration // base delay between retries (grows linearly)

	down      atomic.Bool
	forwarded atomic.Int64 // requests sent (counted once, not per retry)
	failed    atomic.Int64 // requests that exhausted retries or were gated
}

// Addr returns the peer's host:port.
func (p *Peer) Addr() string { return p.addr }

// Up reports the peer's health-gate state.
func (p *Peer) Up() bool { return !p.down.Load() }

// MarkDown gates the peer; forwards fail fast until a probe succeeds.
func (p *Peer) MarkDown() { p.down.Store(true) }

// MarkUp lifts the gate.
func (p *Peer) MarkUp() { p.down.Store(false) }

// Do sends one HTTP request to the peer with health gating and bounded
// retries on connection errors. body may be nil; it is re-sent verbatim
// on every retry. headers are copied onto every attempt. The caller owns
// the response body. HTTP responses of any status are never retried —
// the peer answered; its answer stands. A request that exhausts its
// retries on connection errors marks the peer down and counts as failed;
// one whose caller gives up (ctx canceled or expired) does neither, since
// that says nothing about the peer.
func (p *Peer) Do(ctx context.Context, method, pathAndQuery, contentType string, body []byte, headers map[string]string) (*http.Response, error) {
	if !p.Up() {
		p.failed.Add(1)
		return nil, fmt.Errorf("%w: %s", ErrPeerDown, p.addr)
	}
	p.forwarded.Add(1)
	url := "http://" + p.addr + pathAndQuery
	var lastErr error
	for attempt := 0; attempt <= p.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * p.backoff):
			case <-ctx.Done():
				return nil, fmt.Errorf("cluster: forward to %s: %w", p.addr, context.Cause(ctx))
			}
		}
		var rd *bytes.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		var req *http.Request
		var err error
		if rd != nil {
			req, err = http.NewRequestWithContext(ctx, method, url, rd)
		} else {
			req, err = http.NewRequestWithContext(ctx, method, url, nil)
		}
		if err != nil {
			p.failed.Add(1)
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := p.client.Do(req)
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cluster: forward to %s: %w", p.addr, err)
		}
		lastErr = err
	}
	p.MarkDown()
	p.failed.Add(1)
	return nil, fmt.Errorf("cluster: forward to %s: %w", p.addr, lastErr)
}

// probe checks the peer's /healthz and updates the health gate. It
// bypasses do: probes must dial even while the peer is gated down (that
// is how the gate lifts), never retry, and don't count as forwards.
func (p *Peer) probe(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
	if err != nil {
		p.MarkDown()
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.MarkDown()
		return false
	}
	resp.Body.Close()
	// A draining node answers 503: it is alive but bleeding traffic, so
	// stop routing new work at it, same as a dead one.
	if resp.StatusCode != http.StatusOK {
		p.MarkDown()
		return false
	}
	p.MarkUp()
	return true
}
