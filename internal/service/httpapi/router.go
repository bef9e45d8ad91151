package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	parcut "repro"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
)

// This file is the cluster router: the thin layer that makes any node
// able to accept any request. Graph-scoped routes are forwarded raw to
// the graph's owner (a byte-level proxy keeps response fidelity — cached
// flags, async job IDs, NDJSON streams — exactly what a client talking
// to the owner directly would see), uploads hash their payload to find
// the owner before storing anything, batch uploads partition across
// shards and merge in input order, and job routes fall back to peers
// when the ID is not local. Every route collapses to its single-node
// behavior when the server has no cluster, so single-node deployments
// pay one nil check per request.

// forwarded reports whether r already crossed the cluster once. Forwarded
// requests are always served locally: if two nodes disagree about
// ownership (config skew mid-rollout), the request degrades to a 404
// instead of bouncing between them forever.
func forwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardedFromHeader) != ""
}

// submitterFor picks the submission path for a solve request: the routing
// submitter normally, the node-local scheduler when the request was
// already forwarded once (the forwarding node believed we own the graph;
// re-routing would risk a loop).
func (s *Server) submitterFor(r *http.Request) sched.Submitter {
	if s.cluster != nil && forwarded(r) {
		return s.local
	}
	return s.sub
}

// nodeName is this server's cluster identity ("" when single-node),
// stamped on responses so clients can see which shard served them.
func (s *Server) nodeName() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.Self()
}

// flushingWriter flushes after every write so proxied streams (NDJSON
// job events, incremental batch results) stay live through the extra hop.
type flushingWriter struct{ w http.ResponseWriter }

func (f flushingWriter) Write(b []byte) (int, error) {
	n, err := f.w.Write(b)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// proxyToPeer relays r to owner verbatim: same method, path, query, and
// body, plus the forwarding marker and the originating request ID (so the
// owner's trace carries the correlation ID the client saw). The response
// is streamed back byte-for-byte.
func (s *Server) proxyToPeer(w http.ResponseWriter, r *http.Request, owner string, maxBody int64) {
	var body []byte
	if r.Body != nil && r.ContentLength != 0 {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
				return
			}
			writeErr(w, http.StatusBadRequest, "read request body: %v", err)
			return
		}
		body = b
	}
	s.proxyToPeerBody(w, r, owner, body)
}

// proxyToPeerBody is proxyToPeer with the body already in hand (the
// upload path reads it first to hash the graph).
func (s *Server) proxyToPeerBody(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	p := s.cluster.Peer(owner)
	if p == nil {
		writeErr(w, http.StatusBadGateway, "owner %q is not a cluster member", owner)
		return
	}
	headers := map[string]string{cluster.ForwardedFromHeader: s.cluster.Self()}
	if rid := RequestID(r.Context()); rid != "" {
		headers["X-Request-Id"] = rid
	}
	resp, err := p.Do(r.Context(), r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body, headers)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "forward to %s: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", cluster.NodeHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(flushingWriter{w}, resp.Body)
}

// routeGraph wraps a graph-scoped handler ({id} in the path) with
// ownership routing: local and forwarded requests fall through to next,
// everything else is proxied raw to the owner.
func (s *Server) routeGraph(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cluster == nil || forwarded(r) {
			next(w, r)
			return
		}
		owner := s.cluster.Owner(r.PathValue("id"))
		if owner == s.cluster.Self() {
			next(w, r)
			return
		}
		s.proxyToPeer(w, r, owner, maxUploadBytes)
	}
}

// routeJob wraps a job-scoped handler with peer fallback: job IDs carry a
// per-node prefix, so an ID this node's scheduler does not know belongs
// to whichever peer answers for it. The fallback asks up peers in address
// order and relays the first non-404; if nobody knows the job, next
// serves the local 404.
func (s *Server) routeJob(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cluster == nil || forwarded(r) {
			next(w, r)
			return
		}
		id := r.PathValue("id")
		if _, ok := s.sub.Job(id); ok {
			next(w, r)
			return
		}
		headers := map[string]string{cluster.ForwardedFromHeader: s.cluster.Self()}
		if rid := RequestID(r.Context()); rid != "" {
			headers["X-Request-Id"] = rid
		}
		for _, addr := range s.cluster.Ring().Members() {
			p := s.cluster.Peer(addr)
			if p == nil || !p.Up() {
				continue
			}
			resp, err := p.Do(r.Context(), r.Method, r.URL.RequestURI(), "", nil, headers)
			if err != nil {
				continue
			}
			if resp.StatusCode == http.StatusNotFound {
				resp.Body.Close()
				continue
			}
			for _, h := range []string{"Content-Type", cluster.NodeHeader} {
				if v := resp.Header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(flushingWriter{w}, resp.Body)
			resp.Body.Close()
			return
		}
		next(w, r)
	}
}

// parseUploadGraph decodes an upload body in either encoding (JSON or the
// text format) without storing it — the router needs the graph's content
// hash to pick an owner before any node commits bytes.
func parseUploadGraph(contentType string, body []byte) (*parcut.Graph, error) {
	if strings.HasPrefix(contentType, "application/json") {
		var jg jsonGraph
		if err := json.Unmarshal(body, &jg); err != nil {
			return nil, fmt.Errorf("bad JSON graph: %v", err)
		}
		return buildJSONGraph(jg.N, jg.Edges)
	}
	return parcut.ReadGraph(bytes.NewReader(body))
}

// routeUpload places a single-graph upload: parse, hash, and either store
// locally (this node owns the content hash) or relay the original bytes
// to the owner. Placement by content hash means re-uploading the same
// graph through any node always lands on the same shard and dedups there.
func (s *Server) routeUpload(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil || forwarded(r) {
		s.handleUpload(w, r)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "read upload: %v", err)
		return
	}
	g, perr := parseUploadGraph(r.Header.Get("Content-Type"), body)
	if perr != nil {
		writeErr(w, http.StatusBadRequest, "%v", perr)
		return
	}
	id, gerr := registry.GraphID(g)
	if gerr != nil {
		writeErr(w, http.StatusBadRequest, "%v", gerr)
		return
	}
	owner := s.cluster.Owner(id)
	if owner == s.cluster.Self() {
		r.Body = io.NopCloser(bytes.NewReader(body))
		s.handleUpload(w, r)
		return
	}
	s.proxyToPeerBody(w, r, owner, body)
}

// routeUploadBatch ingests many graphs in one round trip — the bulk
// re-ingestion path after a migration or a data-dir loss. The items this
// node stores are committed as one registry batch, which group-commits
// to the disk store (two fsync barriers for the whole batch instead of
// two per graph). In a cluster, a request not yet forwarded is sharded
// first: every parseable item is hashed and grouped by owner, and each
// peer's share goes to it as one sub-batch, concurrently. Items succeed
// or fail independently, except that a failed group commit fails every
// new item of its shard, and a shard that cannot be reached fails only
// its own items. The response reports per-item status in input order;
// the HTTP status is 200 as long as the envelope was well-formed.
func (s *Server) routeUploadBatch(w http.ResponseWriter, r *http.Request) {
	var req batchUploadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "bad batch upload body: %v", err)
		return
	}
	if len(req.Graphs) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one graph")
		return
	}
	if len(req.Graphs) > maxBatchUploadItems {
		writeErr(w, http.StatusBadRequest, "batch of %d graphs exceeds the limit of %d", len(req.Graphs), maxBatchUploadItems)
		return
	}
	results := make([]batchUploadEntry, len(req.Graphs))
	type shard struct {
		items []batchUploadItem
		idx   []int
	}
	routed := s.cluster != nil && !forwarded(r)
	var localGraphs []*parcut.Graph
	var localIdx []int
	remote := make(map[string]*shard)
	for i, item := range req.Graphs {
		g, err := parseBatchItem(item)
		if err != nil {
			results[i] = batchUploadEntry{Index: i, Status: "failed", Error: err.Error()}
			continue
		}
		if routed {
			id, err := registry.GraphID(g)
			if err != nil {
				results[i] = batchUploadEntry{Index: i, Status: "failed", Error: err.Error()}
				continue
			}
			if owner := s.cluster.Owner(id); owner != s.cluster.Self() {
				sh := remote[owner]
				if sh == nil {
					sh = &shard{}
					remote[owner] = sh
				}
				sh.items = append(sh.items, item)
				sh.idx = append(sh.idx, i)
				continue
			}
		}
		localGraphs = append(localGraphs, g)
		localIdx = append(localIdx, i)
	}

	var wg sync.WaitGroup
	owners := make([]string, 0, len(remote))
	for o := range remote {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		sh := remote[owner]
		wg.Add(1)
		go func(owner string, sh *shard) {
			defer wg.Done()
			s.forwardUploadShard(r, owner, sh.items, sh.idx, results)
		}(owner, sh)
	}
	node := s.nodeName()
	for k, br := range s.reg.PutGraphBatch(localGraphs) {
		i := localIdx[k]
		switch {
		case br.Err != nil:
			results[i] = batchUploadEntry{Index: i, Status: "failed", Error: br.Err.Error()}
		case br.Existed:
			results[i] = batchUploadEntry{Index: i, Status: "existed", ID: br.Info.ID, N: br.Info.N, M: br.Info.M, Bytes: br.Info.Bytes, Node: node}
		default:
			results[i] = batchUploadEntry{Index: i, Status: "created", ID: br.Info.ID, N: br.Info.N, M: br.Info.M, Bytes: br.Info.Bytes, Node: node}
		}
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// forwardUploadShard sends one owner's slice of a batch upload and folds
// the per-item results back into the caller's array at their original
// indices. idx disjointness across shards makes the concurrent writes
// race-free.
func (s *Server) forwardUploadShard(r *http.Request, owner string, items []batchUploadItem, idx []int, results []batchUploadEntry) {
	fail := func(msg string) {
		for _, i := range idx {
			results[i] = batchUploadEntry{Index: i, Status: "failed", Error: msg}
		}
	}
	p := s.cluster.Peer(owner)
	if p == nil {
		fail(fmt.Sprintf("owner %q is not a cluster member", owner))
		return
	}
	body, err := json.Marshal(batchUploadRequest{Graphs: items})
	if err != nil {
		fail(err.Error())
		return
	}
	headers := map[string]string{cluster.ForwardedFromHeader: s.cluster.Self()}
	if rid := RequestID(r.Context()); rid != "" {
		headers["X-Request-Id"] = rid
	}
	resp, err := p.Do(r.Context(), http.MethodPost, "/v1/graphs:batch", "application/json", body, headers)
	if err != nil {
		fail(fmt.Sprintf("forward to %s: %v", owner, err))
		return
	}
	defer resp.Body.Close()
	var out struct {
		Results []batchUploadEntry `json:"results"`
		Error   string             `json:"error"`
	}
	if derr := json.NewDecoder(io.LimitReader(resp.Body, maxUploadBytes)).Decode(&out); derr != nil {
		fail(fmt.Sprintf("bad response from %s: %v", owner, derr))
		return
	}
	if resp.StatusCode != http.StatusOK || len(out.Results) != len(idx) {
		msg := out.Error
		if msg == "" {
			msg = fmt.Sprintf("unexpected response from %s: %s", owner, resp.Status)
		}
		fail(msg)
		return
	}
	for k, e := range out.Results {
		e.Index = idx[k]
		results[idx[k]] = e
	}
}

// clusterBatchItem is one solve of a cross-shard batch: a graph anywhere
// in the cluster plus its solver options.
type clusterBatchItem struct {
	GraphID       string `json:"graph_id"`
	Seed          int64  `json:"seed"`
	Boost         int    `json:"boost,omitempty"`
	WantPartition bool   `json:"want_partition,omitempty"`
	// Engine defaults to "auto"; each graph's owner resolves it against
	// the graph it holds, so one batch may fan across engines.
	Engine string `json:"engine,omitempty"`
}

// clusterBatchRequest is the POST /v1/mincut:batch body: solves spanning
// any number of graphs on any shards.
type clusterBatchRequest struct {
	Items []clusterBatchItem `json:"items"`
	// Class is the QoS class of every solve; defaults to "batch".
	Class string `json:"class,omitempty"`
	// TimeoutMs bounds how long the whole batch waits; 0 means no timeout
	// beyond the client disconnecting.
	TimeoutMs int64 `json:"timeout_ms"`
}

// clusterBatchEntry is one element of the cross-shard batch response.
type clusterBatchEntry struct {
	GraphID string `json:"graph_id"`
	Seed    int64  `json:"seed"`
	// Node is the cluster member that ran (or would run) the solve;
	// omitted in single-node mode.
	Node         string `json:"node,omitempty"`
	JobID        string `json:"job_id,omitempty"`
	Status       string `json:"status"`
	Engine       string `json:"engine,omitempty"`
	Cached       bool   `json:"cached,omitempty"`
	Value        *int64 `json:"value,omitempty"`
	InCut        []bool `json:"in_cut,omitempty"`
	TreesScanned int    `json:"trees_scanned,omitempty"`
	Fanout       int    `json:"fanout,omitempty"`
	Error        string `json:"error,omitempty"`
}

// handleClusterBatch solves many graphs in one request, wherever they
// live. Every item is submitted up front through the routing Submitter —
// local items coalesce in this node's scheduler, remote items start their
// proxied solves concurrently on their owners — and the results stream
// back in input order as each solve finishes. Per-item failures (an
// unreachable shard, an unknown graph) fail only their own entries.
func (s *Server) handleClusterBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req clusterBatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one item")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeErr(w, http.StatusBadRequest, "batch of %d items exceeds the limit of %d", len(req.Items), maxBatchItems)
		return
	}
	if req.Class == "" {
		req.Class = string(sched.ClassBatch)
	}
	class, cerr := sched.ParseClass(req.Class)
	if cerr != nil {
		writeErr(w, http.StatusBadRequest, "%v", cerr)
		return
	}
	if req.TimeoutMs < 0 {
		writeErr(w, http.StatusBadRequest, "timeout_ms must be non-negative")
		return
	}
	for _, it := range req.Items {
		if it.GraphID == "" {
			writeErr(w, http.StatusBadRequest, "every item needs a graph_id")
			return
		}
		if it.Boost < 0 {
			writeErr(w, http.StatusBadRequest, "item boost must be non-negative")
			return
		}
	}

	sub := s.submitterFor(r)
	type submission struct {
		handle sched.Handle
		node   string
		hit    bool
		err    error
	}
	subs := make([]submission, len(req.Items))
	for i, it := range req.Items {
		key := sched.Key{GraphID: it.GraphID, Opt: sched.SolveOptions{
			Seed:          it.Seed,
			WantPartition: it.WantPartition,
			Boost:         it.Boost,
			Engine:        it.Engine,
		}}
		if s.cluster != nil {
			subs[i].node = s.cluster.Owner(it.GraphID)
			subs[i].handle, subs[i].hit, subs[i].err = sub.Submit(r.Context(), key, nil, sched.SubmitOpts{Class: class})
			continue
		}
		// Single-node: fetch the graph and resolve the engine here, the
		// same way the graph-scoped solve route does.
		g, info, err := s.reg.Get(it.GraphID)
		if err != nil {
			subs[i].err = err
			continue
		}
		eng, rerr := engine.ResolveWire(it.Engine, info.N, info.M)
		if rerr != nil {
			subs[i].err = rerr
			continue
		}
		key.Opt.Engine = eng.Name()
		subs[i].handle, subs[i].hit, subs[i].err = sub.Submit(r.Context(), key, g, sched.SubmitOpts{Class: class})
	}

	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_, _ = io.WriteString(w, `{"results":[`)
	for i, sb := range subs {
		entry := clusterBatchEntry{GraphID: req.Items[i].GraphID, Seed: req.Items[i].Seed, Node: sb.node}
		switch {
		case sb.err != nil:
			entry.Status = "rejected"
			entry.Error = sb.err.Error()
		default:
			entry.Cached = sb.hit
			detach := attachJobSpan(r, sb.handle)
			res, err := sb.handle.Wait(ctx)
			detach()
			entry.JobID = sb.handle.ID()
			entry.Fanout = sb.handle.Fanout()
			fillBatchEngine(&entry, sb.handle, s.sub)
			if err != nil {
				entry.Status = "unfinished"
				entry.Error = err.Error()
			} else {
				entry.Status = string(sched.StateDone)
				entry.Value = &res.Value
				entry.InCut = res.InCut
				entry.TreesScanned = res.TreesScanned
			}
		}
		if i > 0 {
			_, _ = io.WriteString(w, ",")
		}
		raw, merr := json.Marshal(entry)
		if merr != nil {
			raw = []byte(`{"status":"failed","error":"encode"}`)
		}
		_, _ = w.Write(raw)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, _ = io.WriteString(w, "]}\n")
}

// fillBatchEngine reports which engine ran (and, for remote handles,
// whether the owner served it from cache): remote handles carry both on
// the handle, local jobs report through the scheduler's status.
func fillBatchEngine(entry *clusterBatchEntry, h sched.Handle, sub sched.Submitter) {
	type remoteInfo interface {
		Engine() string
		Cached() bool
	}
	if ri, ok := h.(remoteInfo); ok {
		if ri.Engine() != "" {
			entry.Engine = ri.Engine()
		}
		if ri.Cached() {
			entry.Cached = true
		}
		return
	}
	if st, ok := sub.Job(h.ID()); ok {
		entry.Engine = st.Engine
	}
}
