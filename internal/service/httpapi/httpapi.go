// Package httpapi is mincutd's JSON-over-HTTP front end. It glues the
// graph registry and the job scheduler to a small REST surface:
//
//	POST   /v1/graphs                    upload a graph (text format or JSON)
//	POST   /v1/graphs:batch              upload many graphs in one request
//	GET    /v1/graphs/{id}               stored graph info
//	DELETE /v1/graphs/{id}               remove a graph (memory, disk, result cache)
//	POST   /v1/graphs/{id}/mincut        solve (sync by default, async opt-in, QoS class opt-in)
//	POST   /v1/graphs/{id}/mincut:batch  solve many seeds in one request
//	GET    /v1/jobs/{id}                 job status / result / live progress
//	GET    /v1/jobs/{id}/events          NDJSON event stream until the job is terminal
//	DELETE /v1/jobs/{id}                 cancel a queued or running job
//	GET    /v1/traces                    finished solve traces (filter by graph, min_duration)
//	GET    /v1/traces/{id}               one trace's full span tree
//	GET    /healthz                      liveness (503 while draining), build info
//	GET    /metrics                      Prometheus text exposition
//
// Every response carries an X-Request-Id (echoing the client's, or
// minted), each request logs one structured access line, and solve
// requests attach an "http" span to the job trace they touch.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	parcut "repro"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
	"repro/internal/service/store"
	"repro/internal/trace"
)

// maxUploadBytes caps graph upload bodies (single and batch).
const maxUploadBytes = 256 << 20

// Server holds the service state behind the HTTP handlers.
type Server struct {
	reg     *registry.Registry
	sch     *sched.Scheduler
	sub     sched.Submitter // routing submitter: the cluster node, or local
	local   sched.Submitter // always this node's scheduler
	cluster *cluster.Node   // nil when running single-node
	st      *store.Store    // nil when running memory-only; metrics only
	traces  *trace.Ring     // nil when tracing is disabled; trace routes 404
	log     *slog.Logger
	version string

	reqSeq   atomic.Int64
	httpm    httpMetrics
	draining atomic.Bool
}

// Options carries the server's observability wiring; the zero value is a
// server with tracing disabled, the default logger, and version "dev".
type Options struct {
	// Traces is the ring the scheduler publishes finished solve traces
	// into; the trace endpoints serve from it. Nil disables them.
	Traces *trace.Ring
	// Logger receives the access log; nil means slog.Default().
	Logger *slog.Logger
	// Version is the build version reported by /healthz and the
	// mincutd_build_info metric; "" means "dev".
	Version string
	// Submitter routes solve submissions; nil means the local scheduler.
	// Cluster deployments pass the cluster.Node so submissions land on
	// each graph's owning shard.
	Submitter sched.Submitter
	// Cluster, when non-nil, turns on the cluster router: graph-scoped
	// requests this node does not own are forwarded to the owner, batch
	// requests shard across the ring, and /healthz and /metrics grow
	// cluster sections. Nil means single-node; the route table and wire
	// formats are identical either way (cluster responses additionally
	// carry "node" fields).
	Cluster *cluster.Node
}

// New wires a server around the given registry and scheduler. st is the
// disk store backing the registry, used for the persistence metrics; nil
// means the service runs memory-only.
func New(reg *registry.Registry, sch *sched.Scheduler, st *store.Store, opt Options) *Server {
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	if opt.Version == "" {
		opt.Version = "dev"
	}
	local := sched.Local{Scheduler: sch}
	sub := opt.Submitter
	if sub == nil {
		sub = local
	}
	return &Server{
		reg: reg, sch: sch, sub: sub, local: local, cluster: opt.Cluster,
		st: st, traces: opt.Traces, log: opt.Logger, version: opt.Version,
	}
}

// Handler returns the route table wrapped in the request middleware
// (request IDs, access log, latency histogram).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.routeUpload)
	mux.HandleFunc("POST /v1/graphs:batch", s.routeUploadBatch)
	mux.HandleFunc("GET /v1/graphs/{id}", s.routeGraph(s.handleGraphInfo))
	mux.HandleFunc("DELETE /v1/graphs/{id}", s.routeGraph(s.handleDeleteGraph))
	mux.HandleFunc("POST /v1/graphs/{id}/mincut", s.routeGraph(s.handleMinCut))
	mux.HandleFunc("POST /v1/graphs/{id}/mincut:batch", s.routeGraph(s.handleMinCutBatch))
	mux.HandleFunc("POST /v1/mincut:batch", s.handleClusterBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.routeJob(s.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.routeJob(s.handleJobEvents))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.routeJob(s.handleCancelJob))
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.middleware(mux)
}

// attachJobSpan links the HTTP request into job's trace: an "http" span
// under the job root carrying the method, path, and request ID — and,
// for requests another cluster node forwarded here, the origin node, so
// a cross-node solve is linked back to its entry point. The returned
// func ends the span and releases the hold; it is a no-op when the job
// is untraced, its trace already published (a cached hit), or the job
// runs on another node (remote handles carry no local span).
func attachJobSpan(r *http.Request, job sched.Handle) func() {
	sp := job.TraceSpan()
	rec := sp.Recorder()
	if !sp.Active() || !rec.Hold() {
		return func() {}
	}
	hsp := sp.Child("http").Attr("method", r.Method).Attr("path", r.URL.Path)
	if rid := RequestID(r.Context()); rid != "" {
		hsp.Attr("request_id", rid)
	}
	if origin := r.Header.Get(cluster.ForwardedFromHeader); origin != "" {
		hsp.Attr("origin_node", origin)
	}
	return func() {
		hsp.End()
		rec.Release()
	}
}

// SetDraining flips /healthz to 503 and rejects new solves; uploads and
// reads keep working so load balancers can bleed traffic gracefully.
func (s *Server) SetDraining() { s.draining.Store(true) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// jsonGraph is the JSON upload form: {"n": 4, "edges": [[0,1,3], ...]}.
type jsonGraph struct {
	N     int        `json:"n"`
	Edges [][3]int64 `json:"edges"`
}

// buildJSONGraph validates and assembles the JSON upload form; the single
// and batch upload paths share it so their validation can never diverge.
func buildJSONGraph(n int, edges [][3]int64) (*parcut.Graph, error) {
	// Same vertex-count bounds as the text parser (graph.Read), which
	// this path bypasses; NewGraph panics on negative n.
	if n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("invalid vertex count n=%d", n)
	}
	g := parcut.NewGraph(n)
	for i, e := range edges {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			return nil, fmt.Errorf("edge %d: %v", i, err)
		}
	}
	return g, nil
}

// uploadErrCode classifies a registry Put failure: a full disk is 507, any
// other backend-store fault is 502, and everything else (parse errors,
// malformed graphs, oversized-for-cache graphs) is the client's 400.
func uploadErrCode(err error) int {
	switch {
	case errors.Is(err, store.ErrDiskFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, registry.ErrStore):
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest
	}
}

type graphResponse struct {
	ID      string `json:"id"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	Bytes   int64  `json:"bytes"`
	Existed bool   `json:"existed,omitempty"`
	// Node is the cluster member holding the graph; omitted single-node.
	Node string `json:"node,omitempty"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var (
		info    registry.Info
		existed bool
		err     error
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var jg jsonGraph
		if derr := json.NewDecoder(body).Decode(&jg); derr != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON graph: %v", derr)
			return
		}
		g, berr := buildJSONGraph(jg.N, jg.Edges)
		if berr != nil {
			writeErr(w, http.StatusBadRequest, "%v", berr)
			return
		}
		info, existed, err = s.reg.PutGraph(g)
	} else {
		info, existed, err = s.reg.Put(body)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
	}
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

// maxBatchUploadItems caps how many graphs one batch upload may carry.
const maxBatchUploadItems = 1024

// batchUploadItem is one graph of a batch upload, in either of the
// single-upload encodings: the JSON form (N + Edges) or the text format
// (Text). Exactly one must be set.
type batchUploadItem struct {
	N     *int       `json:"n,omitempty"`
	Edges [][3]int64 `json:"edges,omitempty"`
	Text  string     `json:"text,omitempty"`
}

// batchUploadRequest is the POST /v1/graphs:batch body.
type batchUploadRequest struct {
	Graphs []batchUploadItem `json:"graphs"`
}

// batchUploadEntry is one element of the batch upload response. Status is
// "created", "existed" (content-hash dedup, including against graphs
// already on disk from before a restart), or "failed".
type batchUploadEntry struct {
	Index  int    `json:"index"`
	Status string `json:"status"`
	ID     string `json:"id,omitempty"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Node is the cluster member the graph was stored on; omitted
	// single-node.
	Node  string `json:"node,omitempty"`
	Error string `json:"error,omitempty"`
}

// handleUploadBatch ingests many graphs in one round trip — the bulk
// re-ingestion path after a migration or a data-dir loss. All parseable
// items are committed as one registry batch, which group-commits to the
// disk store (two fsync barriers for the whole batch instead of two per
// graph). Items succeed or fail independently, except that a failed
// group commit fails every new item; the response reports per-item
// status in input order. The HTTP status is 200 as long as the envelope
// was well-formed.
func (s *Server) handleUploadBatch(w http.ResponseWriter, r *http.Request) {
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
	// Parse every item first; only the parseable ones join the group
	// commit (parse failures are the item's own problem, not the batch's).
	graphs := make([]*parcut.Graph, 0, len(req.Graphs))
	graphIdx := make([]int, 0, len(req.Graphs))
	for i, item := range req.Graphs {
		g, err := parseBatchItem(item)
		if err != nil {
			results[i] = batchUploadEntry{Index: i, Status: "failed", Error: err.Error()}
			continue
		}
		graphs = append(graphs, g)
		graphIdx = append(graphIdx, i)
	}
	node := s.nodeName()
	for k, br := range s.reg.PutGraphBatch(graphs) {
		i := graphIdx[k]
		switch {
		case br.Err != nil:
			results[i] = batchUploadEntry{Index: i, Status: "failed", Error: br.Err.Error()}
		case br.Existed:
			results[i] = batchUploadEntry{Index: i, Status: "existed", ID: br.Info.ID, N: br.Info.N, M: br.Info.M, Bytes: br.Info.Bytes, Node: node}
		default:
			results[i] = batchUploadEntry{Index: i, Status: "created", ID: br.Info.ID, N: br.Info.N, M: br.Info.M, Bytes: br.Info.Bytes, Node: node}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// parseBatchItem decodes one batch upload item in either encoding.
func parseBatchItem(item batchUploadItem) (*parcut.Graph, error) {
	switch {
	case item.Text != "" && item.N == nil && item.Edges == nil:
		return parcut.ReadGraph(strings.NewReader(item.Text))
	case item.Text == "" && item.N != nil:
		return buildJSONGraph(*item.N, item.Edges)
	default:
		return nil, fmt.Errorf(`graph needs exactly one of "text" or "n"+"edges"`)
	}
}

// getGraph fetches a registered graph, writing the HTTP error (404 for
// unknown ids, 502 for a storage-layer failure such as a corrupt segment)
// itself when it returns ok=false.
func (s *Server) getGraph(w http.ResponseWriter, id string) (*parcut.Graph, registry.Info, bool) {
	g, info, err := s.reg.Get(id)
	switch {
	case err == nil:
		return g, info, true
	case errors.Is(err, registry.ErrNotFound), errors.Is(err, store.ErrNotFound):
		// The second sentinel covers a lookup racing a DELETE: the registry
		// knew the id but the backend's copy vanished before the load.
		writeErr(w, http.StatusNotFound, "unknown graph %q", id)
	default:
		// The graph is known but could not be loaded (disk error, CRC
		// mismatch): the client's request was fine, the storage is not.
		writeErr(w, http.StatusBadGateway, "load graph %q: %v", id, err)
	}
	return nil, registry.Info{}, false
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Lookup, not Get: metadata reads must not fault an evicted graph's
	// bytes back in from disk (and churn the LRU) just to report counts
	// the index already holds.
	info, ok := s.reg.Lookup(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph %q", id)
		return
	}
	writeJSON(w, http.StatusOK, graphResponse{ID: info.ID, N: info.N, M: info.M, Bytes: info.Bytes, Node: s.nodeName()})
}

// handleDeleteGraph removes a graph everywhere it lives: the in-memory
// registry, the disk store, and the scheduler's result cache. The cache
// purge closes a staleness hole — after a delete, re-uploading the same
// content recreates the same content-addressed ID, and without the purge
// those solves would be answered from results cached before the delete.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.reg.Delete(id)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "delete graph %q: %v", id, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph %q", id)
		return
	}
	invalidated := s.sub.InvalidateGraph(id)
	resp := map[string]any{
		"id": id, "deleted": true, "invalidated_results": invalidated,
	}
	if node := s.nodeName(); node != "" {
		resp["node"] = node
	}
	writeJSON(w, http.StatusOK, resp)
}

// mincutRequest selects solver options; zero values are valid defaults.
type mincutRequest struct {
	Seed          int64 `json:"seed"`
	WantPartition bool  `json:"want_partition"`
	Boost         int   `json:"boost"`
	// Engine picks the solver backend: "geissmann", "andersonblelloch",
	// "stoerwagner", "kargerstein", or "auto" (the default), which selects
	// by graph size.
	// "auto" resolves to a concrete engine before the job is keyed, so an
	// auto-selected solve and an explicit request for the same engine share
	// one result-cache entry; the chosen engine is reported on the job.
	Engine string `json:"engine,omitempty"`
	// Class is the job's QoS class: "interactive" (default), "batch", or
	// "background". Classes share the worker pool by weighted fairness;
	// see the scheduler docs.
	Class string `json:"class,omitempty"`
	// Async returns 202 with a job ID instead of waiting for the result.
	Async bool `json:"async"`
	// TimeoutMs bounds how long a synchronous request waits (and, if it is
	// the only waiter, how long the solve may run). 0 means no timeout
	// beyond the client disconnecting.
	TimeoutMs int64 `json:"timeout_ms"`
}

type jobResponse struct {
	JobID   string `json:"job_id"`
	GraphID string `json:"graph_id"`
	Status  string `json:"status"`
	Class   string `json:"class,omitempty"`
	// Engine is the concrete solver backend the job runs on ("auto"
	// requests report what auto picked).
	Engine       string `json:"engine,omitempty"`
	Cached       bool   `json:"cached,omitempty"`
	Value        *int64 `json:"value,omitempty"`
	InCut        []bool `json:"in_cut,omitempty"`
	TreesScanned int    `json:"trees_scanned,omitempty"`
	// Fanout is the number of scheduler sub-jobs a boosted solve was
	// decomposed into; absent for single-run solves.
	Fanout int `json:"fanout,omitempty"`
	// Phase, Progress, and Fraction report live solver progress for
	// queued/running jobs (phase "fanout" aggregates a boost's sub-jobs).
	Phase    string                   `json:"phase,omitempty"`
	Progress *parcut.ProgressSnapshot `json:"progress,omitempty"`
	Fraction *float64                 `json:"fraction,omitempty"`
	// Node is the cluster member the job ran on; omitted single-node.
	Node  string `json:"node,omitempty"`
	Error string `json:"error,omitempty"`
}

// submitErr maps a Submit failure to its HTTP response. Queue-pressure
// rejections are 429s (the client should back off and retry), draining is
// 503, an unknown class is the client's 400.
func submitErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, sched.ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, "draining")
	case errors.Is(err, sched.ErrQueueFull), errors.Is(err, sched.ErrClassQueueFull):
		writeErr(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, sched.ErrUnknownClass), errors.Is(err, sched.ErrUnknownEngine):
		writeErr(w, http.StatusBadRequest, "%v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// resolveEngine maps the wire engine name (default "auto") to a concrete
// registered engine using the graph's size, writing the 400 itself on an
// unknown name. Resolving before the scheduler key is built is what lets
// "auto" share cache entries with explicit requests for the same engine.
func resolveEngine(w http.ResponseWriter, name string, info registry.Info) (engine.Engine, bool) {
	if name == "" {
		name = engine.Auto
	}
	eng, err := engine.Resolve(name, info.N, info.M)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return eng, true
}

func (s *Server) handleMinCut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	id := r.PathValue("id")
	g, info, ok := s.getGraph(w, id)
	if !ok {
		return
	}
	req := mincutRequest{}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	if req.Boost < 0 || req.TimeoutMs < 0 {
		writeErr(w, http.StatusBadRequest, "boost and timeout_ms must be non-negative")
		return
	}
	class, cerr := sched.ParseClass(req.Class)
	if cerr != nil {
		writeErr(w, http.StatusBadRequest, "%v", cerr)
		return
	}
	eng, ok := resolveEngine(w, req.Engine, info)
	if !ok {
		return
	}
	key := sched.Key{GraphID: id, Opt: sched.SolveOptions{
		Seed:          req.Seed,
		WantPartition: req.WantPartition,
		Boost:         req.Boost,
		Engine:        eng.Name(),
	}}
	sub := s.submitterFor(r)
	job, hit, err := sub.Submit(r.Context(), key, g, sched.SubmitOpts{Class: class, Detached: req.Async})
	if err != nil {
		submitErr(w, err)
		return
	}
	detach := attachJobSpan(r, job)
	defer detach()
	if req.Async {
		st, _ := sub.Job(job.ID())
		writeJSON(w, http.StatusAccepted, jobResponse{
			JobID: job.ID(), GraphID: id, Status: string(st.State), Class: string(st.Class),
			Engine: st.Engine, Cached: hit, Fanout: job.Fanout(), Node: s.nodeName(),
		})
		return
	}
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := job.Wait(ctx)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case r.Context().Err() != nil:
			code = 499 // this client really closed the request (nginx convention)
		case errors.Is(err, context.Canceled):
			// Canceled from the job's side — DELETE /v1/jobs/{id} or the
			// shutdown drain — while this client was still connected.
			code = http.StatusConflict
		}
		writeJSON(w, code, jobResponse{JobID: job.ID(), GraphID: id, Status: "unfinished", Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, jobResponse{
		JobID: job.ID(), GraphID: id, Status: string(sched.StateDone), Class: string(class),
		Engine: eng.Name(), Cached: hit,
		Value: &res.Value, InCut: res.InCut, TreesScanned: res.TreesScanned, Fanout: job.Fanout(),
		Node: s.nodeName(),
	})
}

// maxBatchItems caps how many solves one batch request may carry.
const maxBatchItems = 1024

// batchItem is one solve of a batch request. A zero Boost inherits the
// request-level boost.
type batchItem struct {
	Seed  int64 `json:"seed"`
	Boost int   `json:"boost,omitempty"`
}

// batchRequest solves many seeds of one graph in a single request. Seeds
// is the shorthand form (every seed gets the request-level Boost); Items
// additionally carries per-item boosts. Both may be given; Seeds run
// first.
type batchRequest struct {
	Seeds         []int64     `json:"seeds"`
	Items         []batchItem `json:"items"`
	Boost         int         `json:"boost"`
	WantPartition bool        `json:"want_partition"`
	// Engine picks the solver backend for every solve in the batch;
	// defaults to "auto" (see mincutRequest.Engine). The resolved engine is
	// echoed in the response envelope.
	Engine string `json:"engine,omitempty"`
	// Class is the QoS class of every solve in the batch; batches default
	// to "batch" (a bulk request is bulk work), unlike single solves.
	Class string `json:"class,omitempty"`
	// TimeoutMs bounds how long the whole batch waits. 0 means no timeout
	// beyond the client disconnecting.
	TimeoutMs int64 `json:"timeout_ms"`
}

// batchEntry is one element of the batch response's results array.
type batchEntry struct {
	Seed         int64  `json:"seed"`
	Boost        int    `json:"boost,omitempty"`
	JobID        string `json:"job_id,omitempty"`
	Status       string `json:"status"`
	Cached       bool   `json:"cached,omitempty"`
	Value        *int64 `json:"value,omitempty"`
	InCut        []bool `json:"in_cut,omitempty"`
	TreesScanned int    `json:"trees_scanned,omitempty"`
	Fanout       int    `json:"fanout,omitempty"`
	Error        string `json:"error,omitempty"`
}

// handleMinCutBatch submits every item of the batch up front — so
// overlapping seed ranges and boost fan-outs coalesce in the scheduler —
// then streams the results array in item order, flushing each entry as
// its solve finishes. Per-item failures (cancellation, timeout) are
// reported in the entry's status/error fields, not by the HTTP status,
// which is committed before the first solve completes.
func (s *Server) handleMinCutBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	id := r.PathValue("id")
	g, info, ok := s.getGraph(w, id)
	if !ok {
		return
	}
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Boost < 0 || req.TimeoutMs < 0 {
		writeErr(w, http.StatusBadRequest, "boost and timeout_ms must be non-negative")
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
	eng, ok := resolveEngine(w, req.Engine, info)
	if !ok {
		return
	}
	items := make([]batchItem, 0, len(req.Seeds)+len(req.Items))
	for _, seed := range req.Seeds {
		items = append(items, batchItem{Seed: seed, Boost: req.Boost})
	}
	for _, it := range req.Items {
		if it.Boost < 0 {
			writeErr(w, http.StatusBadRequest, "item boost must be non-negative")
			return
		}
		if it.Boost == 0 {
			it.Boost = req.Boost
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		writeErr(w, http.StatusBadRequest, "batch needs at least one seed")
		return
	}
	if len(items) > maxBatchItems {
		writeErr(w, http.StatusBadRequest, "batch of %d items exceeds the limit of %d", len(items), maxBatchItems)
		return
	}

	submitter := s.submitterFor(r)
	type submission struct {
		job sched.Handle
		hit bool
		err error
	}
	subs := make([]submission, len(items))
	for i, it := range items {
		key := sched.Key{GraphID: id, Opt: sched.SolveOptions{
			Seed:          it.Seed,
			WantPartition: req.WantPartition,
			Boost:         it.Boost,
			Engine:        eng.Name(),
		}}
		subs[i].job, subs[i].hit, subs[i].err = submitter.Submit(r.Context(), key, g, sched.SubmitOpts{Class: class})
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
	fmt.Fprintf(w, `{"graph_id":%q,"engine":%q,"results":[`, id, eng.Name())
	for i, sub := range subs {
		entry := batchEntry{Seed: items[i].Seed, Boost: items[i].Boost}
		switch {
		case sub.err != nil:
			entry.Status = "rejected"
			entry.Error = sub.err.Error()
		default:
			entry.JobID = sub.job.ID()
			entry.Cached = sub.hit
			entry.Fanout = sub.job.Fanout()
			detach := attachJobSpan(r, sub.job)
			res, err := sub.job.Wait(ctx)
			detach()
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

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.sub.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	resp := jobResponse{
		JobID: st.ID, GraphID: st.GraphID, Status: string(st.State), Class: string(st.Class),
		Engine: st.Engine, Fanout: st.Fanout, Error: st.Err, Node: s.nodeName(),
	}
	fraction := st.Fraction
	resp.Fraction = &fraction
	if st.State == sched.StateQueued || st.State == sched.StateRunning {
		// Live progress: current phase plus the raw counters, so clients
		// can render "trees 7/21" alongside the coarse fraction.
		prog := st.Progress
		resp.Phase = prog.Phase
		resp.Progress = &prog
	}
	if st.State == sched.StateDone {
		v := st.Value
		resp.Value = &v
		resp.InCut = st.InCut
		resp.TreesScanned = st.TreesScanned
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobEvents streams the job's event log as NDJSON — one JSON object
// per line: lifecycle transitions, solver phase changes, throttled
// progress updates, and a final terminal "result" event, after which the
// stream ends. A client that lost its stream resumes without duplicates
// via ?from=<next seq>. Watch a long solve live with
//
//	curl -N localhost:8080/v1/jobs/job-7/events
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sch.Lookup(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "bad from=%q", q)
			return
		}
		from = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, wake, ended := j.Events(from)
		from += len(evs)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		// ended also covers a resume cursor already past a finished log
		// (?from= beyond the terminal event): nothing more will ever be
		// appended, so waiting would hang the connection forever.
		if ended {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.sub.Job(id); !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	canceled := s.sub.Cancel(id)
	writeJSON(w, http.StatusOK, map[string]any{"job_id": id, "canceled": canceled})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	resp := map[string]any{
		"status":     status,
		"version":    s.version,
		"go_version": runtime.Version(),
	}
	if s.cluster != nil {
		st := s.cluster.Stats()
		peers := make([]map[string]any, 0, len(st.Peers))
		for _, p := range st.Peers {
			peers = append(peers, map[string]any{"addr": p.Addr, "up": p.Up})
		}
		resp["cluster"] = map[string]any{
			"self":    st.Self,
			"members": st.Members,
			"vnodes":  st.VNodes,
			"peers":   peers,
		}
	}
	writeJSON(w, code, resp)
}

// handleMetrics renders the scheduler and registry counters in Prometheus
// text exposition format, no client library needed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.sch.Metrics()
	rs := s.reg.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	// writeHist renders one labelled histogram in le semantics; the
	// implicit +Inf bucket is the count.
	writeHist := func(name, labels string, h sched.Histogram) {
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, bk.UpperBound, bk.Count)
		}
		fmt.Fprintf(&b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.Count)
		fmt.Fprintf(&b, "%s_sum{%s} %g\n", name, labels, time.Duration(h.SumNanos).Seconds())
		fmt.Fprintf(&b, "%s_count{%s} %d\n", name, labels, h.Count)
	}
	fmt.Fprintf(&b, "# HELP mincutd_build_info Build metadata; the value is always 1.\n# TYPE mincutd_build_info gauge\n")
	fmt.Fprintf(&b, "mincutd_build_info{version=%q,go_version=%q} 1\n", s.version, runtime.Version())
	// Per-class/per-reason breakdowns keep the old unlabelled series as
	// the sum, so dashboards written against earlier versions keep
	// working next to the labelled ones.
	counter("mincutd_jobs_submitted_total", "Accepted solve submissions, including cache hits (sum; class label breaks it down).", m.Submitted)
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "mincutd_jobs_submitted_total{class=%q} %d\n", c.Class, c.Submitted)
	}
	counter("mincutd_jobs_rejected_total", "Solve submissions rejected (sum; reason label breaks it down).", m.Rejected)
	fmt.Fprintf(&b, "mincutd_jobs_rejected_total{reason=\"draining\"} %d\n", m.RejectedDraining)
	fmt.Fprintf(&b, "mincutd_jobs_rejected_total{reason=\"queue_full\"} %d\n", m.RejectedQueueFull)
	fmt.Fprintf(&b, "mincutd_jobs_rejected_total{reason=\"class_cap\"} %d\n", m.RejectedClassCap)
	counter("mincutd_jobs_completed_total", "Jobs that finished successfully (sum; class and class+engine labels break it down).", m.Completed)
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "mincutd_jobs_completed_total{class=%q} %d\n", c.Class, c.Completed)
	}
	for _, c := range m.Classes {
		for _, ec := range c.CompletedByEngine {
			fmt.Fprintf(&b, "mincutd_jobs_completed_total{class=%q,engine=%q} %d\n", c.Class, ec.Engine, ec.Count)
		}
	}
	counter("mincutd_jobs_failed_total", "Jobs that ended in a solver error.", m.Failed)
	counter("mincutd_jobs_canceled_total", "Jobs canceled before completion.", m.Canceled)
	var dispatched int64
	for _, c := range m.Classes {
		dispatched += c.Dispatched
	}
	counter("mincutd_jobs_dispatched_total", "Jobs handed to a worker (sum; class label breaks it down).", dispatched)
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "mincutd_jobs_dispatched_total{class=%q} %d\n", c.Class, c.Dispatched)
	}
	counter("mincutd_jobs_escalated_total", "Queued jobs promoted to a stronger class by coalescing.", m.Escalated)
	fmt.Fprintf(&b, "# HELP mincutd_queue_wait_seconds_total Total queued-to-dispatched wall time per class.\n# TYPE mincutd_queue_wait_seconds_total counter\n")
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "mincutd_queue_wait_seconds_total{class=%q} %g\n", c.Class, time.Duration(c.QueueWaitNanos).Seconds())
	}
	fmt.Fprintf(&b, "# HELP mincutd_solve_phase_seconds Solver wall time attributed to pipeline phases (canceled tails included).\n# TYPE mincutd_solve_phase_seconds summary\n")
	for _, ph := range m.PhaseSeconds {
		fmt.Fprintf(&b, "mincutd_solve_phase_seconds_sum{phase=%q} %g\n", ph.Phase, time.Duration(ph.Nanos).Seconds())
		fmt.Fprintf(&b, "mincutd_solve_phase_seconds_count{phase=%q} %d\n", ph.Phase, ph.Count)
	}
	fmt.Fprintf(&b, "# HELP mincutd_queue_wait_seconds Queued-to-dispatched wall time per class.\n# TYPE mincutd_queue_wait_seconds histogram\n")
	for _, c := range m.Classes {
		writeHist("mincutd_queue_wait_seconds", fmt.Sprintf("class=%q", c.Class), c.QueueWait)
	}
	fmt.Fprintf(&b, "# HELP mincutd_solve_duration_seconds Solver phase wall time per dispatch class (canceled tails included; the class+phase series is the sum over engines of the class+phase+engine series).\n# TYPE mincutd_solve_duration_seconds histogram\n")
	for _, c := range m.Classes {
		for _, ph := range c.PhaseDurations {
			writeHist("mincutd_solve_duration_seconds", fmt.Sprintf("class=%q,phase=%q", c.Class, ph.Phase), ph.Hist)
		}
	}
	for _, c := range m.Classes {
		for _, ph := range c.PhaseDurationsByEngine {
			writeHist("mincutd_solve_duration_seconds", fmt.Sprintf("class=%q,phase=%q,engine=%q", c.Class, ph.Phase, ph.Engine), ph.Hist)
		}
	}
	fmt.Fprintf(&b, "# HELP mincutd_http_request_duration_seconds HTTP request latency per route and status code.\n# TYPE mincutd_http_request_duration_seconds histogram\n")
	for _, sr := range s.httpm.snapshot() {
		labels := fmt.Sprintf("route=%q,code=\"%d\"", sr.Route, sr.Code)
		for i, ub := range latencyBuckets {
			fmt.Fprintf(&b, "mincutd_http_request_duration_seconds_bucket{%s,le=\"%g\"} %d\n", labels, ub, sr.Buckets[i])
		}
		fmt.Fprintf(&b, "mincutd_http_request_duration_seconds_bucket{%s,le=\"+Inf\"} %d\n", labels, sr.Count)
		fmt.Fprintf(&b, "mincutd_http_request_duration_seconds_sum{%s} %g\n", labels, time.Duration(sr.SumNanos).Seconds())
		fmt.Fprintf(&b, "mincutd_http_request_duration_seconds_count{%s} %d\n", labels, sr.Count)
	}
	counter("mincutd_cache_hits_total", "Submissions served without a new solver run (cached result or coalesced onto an in-flight job).", m.CacheHits)
	counter("mincutd_jobs_coalesced_total", "Submissions that joined an in-flight job (subset of cache hits).", m.Coalesced)
	counter("mincutd_boost_fanouts_total", "Boosted solves decomposed into parallel sub-jobs.", m.Fanouts)
	counter("mincutd_boost_subjobs_total", "Sub-jobs requested by boost fan-outs.", m.SubJobs)
	counter("mincutd_boost_subjobs_shared_total", "Fan-out sub-jobs served by an existing or cached run.", m.SubJobsShared)
	gauge("mincutd_queue_depth", "Jobs waiting for a worker (sum; class label breaks it down).", int64(m.QueueDepth))
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "mincutd_queue_depth{class=%q} %d\n", c.Class, c.QueueDepth)
	}
	fmt.Fprintf(&b, "# HELP mincutd_class_weight Deficit-round-robin dispatch weight per class.\n# TYPE mincutd_class_weight gauge\n")
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "mincutd_class_weight{class=%q} %d\n", c.Class, c.Weight)
	}
	fmt.Fprintf(&b, "# HELP mincutd_class_queue_cap Per-class queued-job admission cap (0 = unbounded).\n# TYPE mincutd_class_queue_cap gauge\n")
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "mincutd_class_queue_cap{class=%q} %d\n", c.Class, c.QueueCap)
	}
	gauge("mincutd_jobs_running", "Jobs currently on a worker.", int64(m.Running))
	gauge("mincutd_jobs_running_peak", "High-water mark of jobs concurrently on workers.", int64(m.PeakRunning))
	gauge("mincutd_workers", "Worker pool size.", int64(m.Workers))
	gauge("mincutd_solve_pool_width", "Executor width each solver worker owns (workers x width caps total solver parallelism).", int64(m.PoolWidth))
	counter("mincutd_pool_steals_total", "Tasks taken from another lane's deque by an idle worker, summed over worker executors.", m.Pool.Steals)
	counter("mincutd_pool_local_pushes_total", "Forks pushed onto the forking lane's own deque (fast path).", m.Pool.LocalPushes)
	counter("mincutd_pool_shared_pushes_total", "Forks from outside the pool distributed round-robin to lane deques.", m.Pool.SharedPushes)
	counter("mincutd_pool_overflow_pushes_total", "Forks spilled to the unbounded overflow queue because a deque was full.", m.Pool.OverflowPushes)
	counter("mincutd_pool_inline_runs_total", "Forks executed inline instead of being queued (closed-pool races only; should stay 0).", m.Pool.InlineRuns)
	counter("mincutd_pool_arena_hits_total", "Solve-arena borrows served from a recycled buffer.", m.Pool.ArenaHits)
	counter("mincutd_pool_arena_misses_total", "Solve-arena borrows that had to allocate a fresh buffer.", m.Pool.ArenaMisses)
	fmt.Fprintf(&b, "# HELP mincutd_solve_seconds Wall time of successful solver runs.\n# TYPE mincutd_solve_seconds histogram\n")
	for _, bk := range m.LatencyBuckets {
		fmt.Fprintf(&b, "mincutd_solve_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", bk.UpperBound), bk.Count)
	}
	fmt.Fprintf(&b, "mincutd_solve_seconds_bucket{le=\"+Inf\"} %d\n", m.SolveCount)
	fmt.Fprintf(&b, "mincutd_solve_seconds_sum %g\n", time.Duration(m.SolveNanos).Seconds())
	fmt.Fprintf(&b, "mincutd_solve_seconds_count %d\n", m.SolveCount)
	gauge("mincutd_graphs", "Graphs currently registered (resident or on disk).", int64(rs.Graphs))
	gauge("mincutd_graphs_resident", "Graphs whose edges are held in memory.", int64(rs.Resident))
	gauge("mincutd_graph_bytes", "Edge bytes held by the registry.", rs.Bytes)
	gauge("mincutd_graph_capacity_bytes", "Registry edge-byte budget (0 = unbounded).", rs.Capacity)
	counter("mincutd_graphs_evicted_total", "Graphs evicted by the LRU budget.", rs.Evictions)
	counter("mincutd_graph_dedup_total", "Uploads deduplicated by content hash.", rs.Dedups)
	counter("mincutd_graph_lookup_hits_total", "Graph lookups that found their graph.", rs.Hits)
	counter("mincutd_graph_lookup_misses_total", "Graph lookups that missed.", rs.Misses)
	counter("mincutd_graph_store_loads_total", "Evicted graphs faulted back in from the disk store.", rs.Loads)
	counter("mincutd_graph_store_load_errors_total", "Disk store loads that failed (I/O or CRC).", rs.LoadErrors)
	if s.st != nil {
		ss := s.st.Stats()
		gauge("mincutd_store_segments", "Segment files in the disk store.", int64(ss.Segments))
		gauge("mincutd_store_bytes", "Bytes held in segment files.", ss.Bytes)
		gauge("mincutd_store_live_bytes", "Segment bytes referenced by live graphs.", ss.LiveBytes)
		gauge("mincutd_store_graphs", "Graphs committed to the disk store.", int64(ss.Graphs))
		gauge("mincutd_store_max_disk_bytes", "Disk budget (0 = unbounded).", ss.MaxDiskBytes)
		counter("mincutd_store_recovered_graphs_total", "Graphs recovered from disk at startup.", ss.Recovered)
		counter("mincutd_store_corrupt_tail_total", "Torn tail writes truncated during startup recovery.", ss.CorruptTail)
		counter("mincutd_store_puts_total", "Graphs durably committed to disk.", ss.Puts)
		counter("mincutd_store_deletes_total", "Graphs tombstoned on disk.", ss.Deletes)
		counter("mincutd_store_fsyncs_total", "Fsync barriers issued by the commit protocol (group commit amortizes these over batches).", ss.Syncs)
	}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		fmt.Fprintf(&b, "# HELP mincutd_cluster_members Static cluster member count this node's ring was built over.\n# TYPE mincutd_cluster_members gauge\n")
		fmt.Fprintf(&b, "mincutd_cluster_members{node=%q} %d\n", cs.Self, len(cs.Members))
		fmt.Fprintf(&b, "# HELP mincutd_cluster_ring_vnodes Virtual nodes per member on the placement ring.\n# TYPE mincutd_cluster_ring_vnodes gauge\n")
		fmt.Fprintf(&b, "mincutd_cluster_ring_vnodes{node=%q} %d\n", cs.Self, cs.VNodes)
		fmt.Fprintf(&b, "# HELP mincutd_cluster_peer_up Peer health gate: 1 while forwards are allowed, 0 while the peer is marked down.\n# TYPE mincutd_cluster_peer_up gauge\n")
		for _, p := range cs.Peers {
			up := 0
			if p.Up {
				up = 1
			}
			fmt.Fprintf(&b, "mincutd_cluster_peer_up{peer=%q} %d\n", p.Addr, up)
		}
		fmt.Fprintf(&b, "# HELP mincutd_cluster_forwarded_total Requests forwarded to a peer (counted once per request, not per retry).\n# TYPE mincutd_cluster_forwarded_total counter\n")
		for _, p := range cs.Peers {
			fmt.Fprintf(&b, "mincutd_cluster_forwarded_total{peer=%q} %d\n", p.Addr, p.Forwarded)
		}
		fmt.Fprintf(&b, "# HELP mincutd_cluster_forward_failed_total Forwards that failed after retries or were gated by peer health.\n# TYPE mincutd_cluster_forward_failed_total counter\n")
		for _, p := range cs.Peers {
			fmt.Fprintf(&b, "mincutd_cluster_forward_failed_total{peer=%q} %d\n", p.Addr, p.Failed)
		}
	}
	_, _ = io.WriteString(w, b.String())
}
