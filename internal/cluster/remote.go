package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	parcut "repro"
	"repro/internal/service/sched"
	"repro/internal/trace"
)

// solveRequest is the subset of httpapi's mincut request body the remote
// submitter fills in. Field names must match the HTTP API; the engine may
// be "auto" — the owning node resolves it against the graph it holds.
type solveRequest struct {
	Seed          int64  `json:"seed"`
	WantPartition bool   `json:"want_partition,omitempty"`
	Boost         int    `json:"boost,omitempty"`
	Engine        string `json:"engine,omitempty"`
	Class         string `json:"class,omitempty"`
}

// solveResponse is the subset of httpapi's job response the remote
// submitter reads back.
type solveResponse struct {
	JobID        string `json:"job_id"`
	Status       string `json:"status"`
	Engine       string `json:"engine"`
	Cached       bool   `json:"cached"`
	Value        *int64 `json:"value"`
	InCut        []bool `json:"in_cut"`
	TreesScanned int    `json:"trees_scanned"`
	Fanout       int    `json:"fanout"`
	Error        string `json:"error"`
}

// remoteHandle is a sched.Handle whose job runs on another node: Submit
// starts the proxied solve request eagerly (so a batch of remote handles
// solves concurrently), Wait joins it. The owning node does all the real
// work — coalescing, caching, boost fan-out — through the same HTTP API
// external clients use.
type remoteHandle struct {
	peer    *Peer
	graphID string

	done chan struct{}
	once sync.Once

	// Written by the request goroutine before done closes, read only
	// after: the owning node's view of the job.
	id     string
	engine string
	fanout int
	cached bool
	node   string
	res    parcut.Result
	err    error
}

// submitRemote starts a solve of key on p. The request inherits rid as
// its X-Request-Id, so the owning node's trace carries the originating
// request's correlation ID. ctx governs the whole proxied solve.
func submitRemote(ctx context.Context, p *Peer, self string, key sched.Key, opts sched.SubmitOpts, rid string) (*remoteHandle, error) {
	body, err := json.Marshal(solveRequest{
		Seed:          key.Opt.Seed,
		WantPartition: key.Opt.WantPartition,
		Boost:         key.Opt.Boost,
		Engine:        key.Opt.Engine,
		Class:         string(opts.Class),
	})
	if err != nil {
		return nil, err
	}
	h := &remoteHandle{peer: p, graphID: key.GraphID, node: p.addr, done: make(chan struct{})}
	go h.run(ctx, self, body, rid)
	return h, nil
}

// run performs the proxied solve and publishes the outcome on h.
func (h *remoteHandle) run(ctx context.Context, self string, body []byte, rid string) {
	defer close(h.done)
	headers := map[string]string{ForwardedFromHeader: self}
	if rid != "" {
		headers[requestIDHeader] = rid
	}
	path := "/v1/graphs/" + url.PathEscape(h.graphID) + "/mincut"
	resp, err := h.peer.Do(ctx, http.MethodPost, path, "application/json", body, headers)
	if err != nil {
		h.err = err
		return
	}
	defer resp.Body.Close()
	var sr solveResponse
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&sr); derr != nil {
		h.err = fmt.Errorf("cluster: bad response from %s (%s): %v", h.peer.addr, resp.Status, derr)
		return
	}
	h.id, h.engine, h.fanout, h.cached = sr.JobID, sr.Engine, sr.Fanout, sr.Cached
	if resp.StatusCode != http.StatusOK || sr.Value == nil {
		msg := sr.Error
		if msg == "" {
			msg = resp.Status
		}
		h.err = fmt.Errorf("cluster: solve on %s: %s", h.peer.addr, msg)
		return
	}
	h.res = parcut.Result{Value: *sr.Value, InCut: sr.InCut, TreesScanned: sr.TreesScanned}
}

// ID returns the job ID assigned by the owning node ("" until Wait
// returns — remote job identity only exists once the owner answered).
func (h *remoteHandle) ID() string {
	select {
	case <-h.done:
		return h.id
	default:
		return ""
	}
}

// Fanout reports the owning node's boost decomposition (0 until Wait).
func (h *remoteHandle) Fanout() int {
	select {
	case <-h.done:
		return h.fanout
	default:
		return 0
	}
}

// TraceSpan returns the zero SpanRef: the span tree lives on the owning
// node, reachable through its /v1/traces with the propagated request ID.
func (h *remoteHandle) TraceSpan() trace.SpanRef { return trace.SpanRef{} }

// Wait joins the proxied solve. The solve itself is bounded by the
// context Submit was given; Wait's ctx only bounds this caller's wait.
func (h *remoteHandle) Wait(ctx context.Context) (parcut.Result, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return parcut.Result{}, fmt.Errorf("cluster: wait: %w", context.Cause(ctx))
	}
}

// Engine returns the concrete engine the owning node ran ("" until Wait).
func (h *remoteHandle) Engine() string { return h.engine }

// Cached reports whether the owning node served the solve from its
// result cache (meaningful after Wait).
func (h *remoteHandle) Cached() bool { return h.cached }

// Node returns the address of the node that ran the job.
func (h *remoteHandle) Node() string { return h.node }

var _ sched.Handle = (*remoteHandle)(nil)
