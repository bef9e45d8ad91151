package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	parcut "repro"
	"repro/internal/cluster"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
)

// This file is the cluster router, the one place that decides where a
// request runs; every handler it hands a request to serves it locally.
// Graph-scoped routes are forwarded raw to the graph's owner (a
// byte-level proxy keeps response fidelity — cached flags, async job
// IDs, NDJSON streams — exactly what a client talking to the owner
// directly would see), uploads hash their payload to find the owner
// before storing anything, batch uploads and cross-graph solve batches
// send each remote owner its items as one forwarded sub-batch and merge
// in input order, and job routes fall back to peers when the ID is not
// local. Every route collapses to its single-node behavior when the
// server has no cluster, so single-node deployments pay one nil check per
// request.

// forwarded reports whether r already crossed the cluster once. Forwarded
// requests are always served locally: if two nodes disagree about
// ownership (config skew mid-rollout), the request degrades to a 404
// instead of bouncing between them forever.
func forwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardedFromHeader) != ""
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

// proxyToPeer relays a graph-scoped request r to owner verbatim: same
// method, path, query, and body, plus the forwarding marker and the
// originating request ID (so the owner's trace carries the correlation ID
// the client saw). The response is streamed back byte-for-byte. A body
// past maxSolveBytes, which the owner would refuse, is refused here with
// a 413 and never sent.
func (s *Server) proxyToPeer(w http.ResponseWriter, r *http.Request, owner string) {
	var body []byte
	if r.Body != nil && r.ContentLength != 0 {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSolveBytes))
		if err != nil {
			writeErr(w, uploadErrCode(err), "read request body: %v", err)
			return
		}
		body = b
	}
	s.proxyToPeerBody(w, r, owner, body)
}

// proxyToPeerBody is proxyToPeer with the body already in hand (the
// upload path reads it first to hash the graph).
func (s *Server) proxyToPeerBody(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	resp, err := s.forward(r.Context(), owner, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "forward to %s: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp)
}

// forward sends one request to owner on behalf of the client request
// whose context is ctx. It is marked as already routed by this node and
// carries the request ID, so the owner serves it locally and its trace
// names both.
func (s *Server) forward(ctx context.Context, owner, method, path, contentType string, body []byte) (*http.Response, error) {
	p := s.cluster.Peer(owner)
	if p == nil {
		return nil, fmt.Errorf("owner %q is not a cluster member", owner)
	}
	headers := map[string]string{cluster.ForwardedFromHeader: s.cluster.Self()}
	if rid := requestID(ctx); rid != "" {
		headers["X-Request-Id"] = rid
	}
	return p.Do(ctx, method, path, contentType, body, headers)
}

// relay copies a peer's response to w: the status, the headers a client
// reads (content type and the serving node's stamp), and the body,
// flushed as it arrives.
func relay(w http.ResponseWriter, resp *http.Response) {
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
		s.proxyToPeer(w, r, owner)
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
		if _, ok := s.sch.Job(r.PathValue("id")); ok {
			next(w, r)
			return
		}
		for _, addr := range s.cluster.Ring().Members() {
			if p := s.cluster.Peer(addr); p == nil || !p.Up() {
				continue
			}
			resp, err := s.forward(r.Context(), addr, r.Method, r.URL.RequestURI(), "", nil)
			if err != nil {
				continue
			}
			if resp.StatusCode == http.StatusNotFound {
				resp.Body.Close()
				continue
			}
			relay(w, resp)
			resp.Body.Close()
			return
		}
		next(w, r)
	}
}

// routeUpload stores one uploaded graph, or places it: the body is decoded
// once, and the graph is stored from that decode when this node owns its
// content ID, or the bytes the client sent are relayed to the owner.
// Placement by content hash means re-uploading the same graph through any
// node always lands on the same shard and dedups there. Single-node and
// forwarded uploads never need the raw bytes, so the text format streams
// into its parser.
func (s *Server) routeUpload(w http.ResponseWriter, r *http.Request) {
	routed := s.cluster != nil && !forwarded(r)
	var src io.Reader = http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var body []byte
	if routed {
		b, err := io.ReadAll(src)
		if err != nil {
			writeErr(w, uploadErrCode(err), "read upload: %v", err)
			return
		}
		body, src = b, bytes.NewReader(b)
	}
	g, err := decodeUpload(r.Header.Get("Content-Type"), src)
	if err != nil {
		writeErr(w, uploadErrCode(err), "%v", err)
		return
	}
	if routed {
		id, err := registry.GraphID(g)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if owner := s.cluster.Owner(id); owner != s.cluster.Self() {
			s.proxyToPeerBody(w, r, owner, body)
			return
		}
	}
	info, existed, err := s.reg.PutGraph(g)
	if err != nil {
		writeErr(w, uploadErrCode(err), "%v", err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, graphResponse{ID: info.ID, N: info.N, M: info.M, Bytes: info.Bytes, Existed: existed, Node: s.nodeName()})
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
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxUploadBytes), &req); err != nil {
		writeErr(w, uploadErrCode(err), "bad batch upload body: %v", err)
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
	body, err := json.Marshal(batchUploadRequest{Graphs: items})
	if err != nil {
		fail(err.Error())
		return
	}
	resp, err := s.forward(r.Context(), owner, http.MethodPost, "/v1/graphs:batch", "application/json", body)
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

// clusterBatchRequest is the POST /v1/mincut:batch body: solves spanning
// any number of graphs on any shards.
type clusterBatchRequest struct {
	Items []solveItem `json:"items"`
	// Class is the QoS class of every solve; defaults to "batch".
	Class string `json:"class,omitempty"`
	// TimeoutMs bounds how long the whole batch waits; 0 means no timeout
	// beyond the client disconnecting.
	TimeoutMs int64 `json:"timeout_ms"`
}

// handleClusterBatch solves many graphs in one request, wherever they
// live. The items this node owns — every item single-node, and every item
// of a request another node forwarded — are submitted to the local
// scheduler up front, where they coalesce; each remote owner gets its
// items as one forwarded sub-batch, all owners concurrently. Entries
// stream back in input order (see streamBatch). Per-item failures (an
// unknown graph, an unreachable shard) fail only their own entries.
func (s *Server) handleClusterBatch(w http.ResponseWriter, r *http.Request) {
	var req clusterBatchRequest
	if !s.readSolve(w, r, &req) {
		return
	}
	class, err := checkSolve(req.Items, 0, req.TimeoutMs, req.Class, sched.ClassBatch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := waitContext(r, req.TimeoutMs)
	defer cancel()
	routed := s.cluster != nil && !forwarded(r)
	node := s.nodeName()
	slots := make([]batchSlot, len(req.Items))
	remote := make(map[string][]int) // owner -> item indices, in input order
	for i, it := range req.Items {
		sl := &slots[i]
		sl.entry = batchEntry{GraphID: it.GraphID, Seed: it.Seed, Node: node}
		if routed {
			if owner := s.cluster.Owner(it.GraphID); owner != s.cluster.Self() {
				sl.entry.Node, sl.ready = owner, make(chan struct{})
				remote[owner] = append(remote[owner], i)
				continue
			}
		}
		g, info, err := s.reg.Get(it.GraphID)
		var key sched.Key
		if err == nil {
			key, err = solveKey(info, it)
		}
		if err != nil {
			sl.entry.Status, sl.entry.Error = "rejected", err.Error()
			continue
		}
		sl.entry.Engine = key.Opt.Engine
		s.submit(sl, key, g, class)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for owner, idx := range remote {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.forwardBatchShard(ctx, owner, req, idx, slots)
		}()
	}
	s.streamBatch(ctx, w, r, `{"results":[`, slots)
}

// forwardBatchShard sends owner the items idx of a cross-shard batch as
// one forwarded sub-batch with the batch's class and timeout_ms, and
// fills their slots from the owner's streamed answer, releasing each slot
// as its entry arrives. Items the owner did not answer for fail: "failed"
// with the reason when the shard could not be reached or answered badly,
// "unfinished" when ctx — the batch's deadline or its client — cut the
// forward short. idx disjointness across shards makes the concurrent
// slot writes race-free.
func (s *Server) forwardBatchShard(ctx context.Context, owner string, req clusterBatchRequest, idx []int, slots []batchSlot) {
	answered := 0
	fail := func(err error) {
		status, msg := "failed", err.Error()
		if ctx.Err() != nil {
			status, msg = "unfinished", context.Cause(ctx).Error()
		}
		for _, i := range idx[answered:] {
			slots[i].entry.Status, slots[i].entry.Error = status, msg
			close(slots[i].ready)
		}
	}
	sub := clusterBatchRequest{Class: req.Class, TimeoutMs: req.TimeoutMs}
	for _, i := range idx {
		sub.Items = append(sub.Items, req.Items[i])
	}
	body, err := json.Marshal(sub)
	if err != nil {
		fail(err)
		return
	}
	resp, err := s.forward(ctx, owner, http.MethodPost, "/v1/mincut:batch", "application/json", body)
	if err != nil {
		fail(fmt.Errorf("forward to %s: %v", owner, err))
		return
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var out struct {
			Error string `json:"error"`
		}
		_ = dec.Decode(&out) // an undecodable body falls back to the status line
		if out.Error == "" {
			out.Error = resp.Status
		}
		fail(fmt.Errorf("sub-batch on %s: %s", owner, out.Error))
		return
	}
	// The owner streams {"results":[...]}, one entry per item in order.
	for _, want := range []json.Token{json.Delim('{'), "results", json.Delim('[')} {
		tok, err := dec.Token()
		if err == nil && tok != want {
			err = fmt.Errorf("got %v, want %v", tok, want)
		}
		if err != nil {
			fail(fmt.Errorf("bad response from %s: %v", owner, err))
			return
		}
	}
	for ; answered < len(idx) && dec.More(); answered++ {
		var e batchEntry
		if err := dec.Decode(&e); err != nil {
			fail(fmt.Errorf("bad response from %s: %v", owner, err))
			return
		}
		slots[idx[answered]].entry = e
		close(slots[idx[answered]].ready)
	}
	if answered < len(idx) {
		fail(fmt.Errorf("bad response from %s: %d of %d entries", owner, answered, len(idx)))
	}
}
