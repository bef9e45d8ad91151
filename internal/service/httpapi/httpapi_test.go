package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	parcut "repro"
	"repro/internal/cluster"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
	"repro/internal/service/store"
)

type testServer struct {
	*httptest.Server
	api *Server
	sch *sched.Scheduler
}

func newTestServer(t *testing.T, workers int) *testServer {
	t.Helper()
	reg := registry.New(0, nil)
	sch := sched.New(sched.Config{Workers: workers})
	api := New(reg, sch, nil, Options{})
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		if err := sch.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
	})
	return &testServer{Server: ts, api: api, sch: sch}
}

func (ts *testServer) do(t *testing.T, method, path, contentType string, body []byte, out any) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.Bytes()
}

// uploadCycle uploads an n-cycle with edge weights 2,3,4,2,3,4,... and
// returns its registry ID. Minimum cut = 4 (two weight-2 edges).
func (ts *testServer) uploadCycle(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "p cut %d %d\n", n, n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e %d %d %d\n", i, (i+1)%n, 2+i%3)
	}
	var gr graphResponse
	code, raw := ts.do(t, "POST", "/v1/graphs", "", []byte(b.String()), &gr)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, raw)
	}
	return gr.ID
}

// metric scrapes one sample value from /metrics.
func (ts *testServer) metric(t *testing.T, name string) int64 {
	t.Helper()
	code, body := ts.do(t, "GET", "/metrics", "", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s missing from:\n%s", name, body)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// waitMetric polls until the named metric equals want;
// waitMetricAtLeast until it reaches want.
func (ts *testServer) waitMetric(t *testing.T, name string, want int64) {
	t.Helper()
	ts.waitMetricCond(t, name, want, func(v int64) bool { return v == want })
}

func (ts *testServer) waitMetricAtLeast(t *testing.T, name string, want int64) {
	t.Helper()
	ts.waitMetricCond(t, name, want, func(v int64) bool { return v >= want })
}

func (ts *testServer) waitMetricCond(t *testing.T, name string, want int64, ok func(int64) bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !ok(ts.metric(t, name)) {
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %d (is %d)", name, want, ts.metric(t, name))
		}
		time.Sleep(time.Millisecond)
	}
}

// startBlocker occupies a worker with an effectively endless solve (huge
// boost on a small graph: each run is fast, so cancellation is prompt) and
// returns the job ID so tests can cancel it. The paper engine is pinned:
// the default "auto" resolves small graphs to the exact stoerwagner
// backend, where boost collapses to one instant run — no blocking at all.
func (ts *testServer) startBlocker(t *testing.T, graphID string) string {
	t.Helper()
	var jr jobResponse
	code, raw := ts.do(t, "POST", "/v1/graphs/"+graphID+"/mincut", "application/json",
		[]byte(`{"seed": 999, "boost": 1048576, "async": true, "engine": "geissmann"}`), &jr)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit: %d %s", code, raw)
	}
	ts.waitMetric(t, "mincutd_jobs_running", 1)
	return jr.JobID
}

func (ts *testServer) cancelJob(t *testing.T, jobID string) {
	t.Helper()
	if code, raw := ts.do(t, "DELETE", "/v1/jobs/"+jobID, "", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel %s: %d %s", jobID, code, raw)
	}
}

func TestUploadSolveAndJobStatus(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadCycle(t, 8)
	if !strings.HasPrefix(id, registry.IDPrefix) {
		t.Fatalf("graph ID = %q", id)
	}

	var gr graphResponse
	if code, _ := ts.do(t, "GET", "/v1/graphs/"+id, "", nil, &gr); code != http.StatusOK || gr.M != 8 {
		t.Fatalf("graph info: %d %+v", code, gr)
	}

	var jr jobResponse
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 1, "want_partition": true}`), &jr)
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	if jr.Value == nil || *jr.Value != 4 || jr.Status != "done" {
		t.Fatalf("solve response: %s", raw)
	}
	if len(jr.InCut) != 8 {
		t.Fatalf("partition length %d, want 8", len(jr.InCut))
	}

	var st jobResponse
	if code, _ := ts.do(t, "GET", "/v1/jobs/"+jr.JobID, "", nil, &st); code != http.StatusOK || st.Status != "done" || *st.Value != 4 {
		t.Fatalf("job status: %d %+v", code, st)
	}
}

func TestUploadDedupAndJSONForm(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	// The same graph uploaded as JSON dedups to the same content address.
	edges := make([][3]int64, 8)
	for i := 0; i < 8; i++ {
		edges[i] = [3]int64{int64(i), int64((i + 1) % 8), int64(2 + i%3)}
	}
	body, _ := json.Marshal(jsonGraph{N: 8, Edges: edges})
	var gr graphResponse
	code, raw := ts.do(t, "POST", "/v1/graphs", "application/json", body, &gr)
	if code != http.StatusOK || !gr.Existed || gr.ID != id {
		t.Fatalf("JSON re-upload: %d %s (want existing %s)", code, raw, id)
	}
}

func TestNotFoundAndBadInput(t *testing.T) {
	ts := newTestServer(t, 1)
	if code, _ := ts.do(t, "GET", "/v1/graphs/sha256:feed", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing graph: %d", code)
	}
	if code, _ := ts.do(t, "POST", "/v1/graphs/sha256:feed/mincut", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("solve on missing graph: %d", code)
	}
	if code, _ := ts.do(t, "GET", "/v1/jobs/job-404", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing job: %d", code)
	}
	if code, _ := ts.do(t, "POST", "/v1/graphs", "", []byte("not a graph"), nil); code != http.StatusBadRequest {
		t.Fatalf("bad upload: %d", code)
	}
	id := ts.uploadCycle(t, 8)
	if code, _ := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json", []byte(`{"boost": -1}`), nil); code != http.StatusBadRequest {
		t.Fatalf("negative boost: %d", code)
	}
	// The JSON upload path must apply the same vertex-count bounds as the
	// text parser: negative n would panic NewGraph, huge n would let a
	// 16-byte upload pin O(n) solver allocations.
	for _, body := range []string{`{"n": -1}`, `{"n": 1099511627776, "edges": [[0,1,1]]}`} {
		if code, raw := ts.do(t, "POST", "/v1/graphs", "application/json", []byte(body), nil); code != http.StatusBadRequest {
			t.Fatalf("upload %s: %d %s, want 400", body, code, raw)
		}
	}
}

// TestConcurrentDuplicateRequestsCoalesce is the acceptance test for the
// singleflight cache: N identical in-flight requests produce one solver
// run, asserted via the cache-hit metric.
func TestConcurrentDuplicateRequestsCoalesce(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	blocker := ts.startBlocker(t, id)

	const dups = 5
	var wg sync.WaitGroup
	codes := make([]int, dups)
	values := make([]int64, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var jr jobResponse
			codes[i], _ = ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
				[]byte(`{"seed": 42}`), &jr)
			if jr.Value != nil {
				values[i] = *jr.Value
			}
		}(i)
	}
	// All five must be in flight (coalesced onto one queued job) before
	// the worker frees up, or they could be served one after another from
	// the finished-result cache instead.
	ts.waitMetric(t, "mincutd_jobs_coalesced_total", dups-1)
	ts.cancelJob(t, blocker)
	wg.Wait()
	for i := 0; i < dups; i++ {
		if codes[i] != http.StatusOK || values[i] != 4 {
			t.Fatalf("request %d: code=%d value=%d", i, codes[i], values[i])
		}
	}
	if hits := ts.metric(t, "mincutd_cache_hits_total"); hits != dups-1 {
		t.Fatalf("cache hits = %d, want %d", hits, dups-1)
	}
	// One shared solve; the canceled blocker never completes one.
	if solves := ts.metric(t, "mincutd_solve_seconds_count"); solves != 1 {
		t.Fatalf("solver runs = %d, want 1", solves)
	}
}

// TestExpiredDeadlineReturnsPromptly is the acceptance test for request
// deadlines: with the worker occupied, a 1ms-deadline request must come
// back as a timeout error long before the solver could have served it.
func TestExpiredDeadlineReturnsPromptly(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	blocker := ts.startBlocker(t, id)
	defer ts.cancelJob(t, blocker)

	start := time.Now()
	var jr jobResponse
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 7, "timeout_ms": 1}`), &jr)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline solve: %d %s", code, raw)
	}
	if !strings.Contains(jr.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", jr.Error)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout response took %v", elapsed)
	}
}

func TestAsyncSolveAndCancel(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	blocker := ts.startBlocker(t, id)

	var st jobResponse
	if code, _ := ts.do(t, "GET", "/v1/jobs/"+blocker, "", nil, &st); code != http.StatusOK || st.Status != "running" {
		t.Fatalf("blocker status: %d %+v", code, st)
	}
	ts.cancelJob(t, blocker)
	deadline := time.Now().Add(60 * time.Second)
	for {
		ts.do(t, "GET", "/v1/jobs/"+blocker, "", nil, &st)
		if st.Status == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck in %q", st.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Error == "" {
		t.Fatal("canceled job reports no error")
	}
}

// TestServerSideCancelIsNot499: a waiter whose job is canceled by someone
// else (DELETE) is still connected, so it must get 409, not 499 ("client
// closed request").
func TestServerSideCancelIsNot499(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	codeCh := make(chan int, 1)
	bodyCh := make(chan []byte, 1)
	go func() {
		var jr jobResponse
		code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
			[]byte(`{"seed": 999, "boost": 1048576, "engine": "geissmann"}`), &jr)
		codeCh <- code
		bodyCh <- raw
	}()
	ts.waitMetric(t, "mincutd_jobs_running", 1)
	ts.cancelJob(t, "job-1")
	select {
	case code := <-codeCh:
		if code != http.StatusConflict {
			t.Fatalf("server-side cancel returned %d (%s), want 409", code, <-bodyCh)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sync waiter never returned after job cancel")
	}
}

func TestHealthzAndDrain(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	if code, _ := ts.do(t, "GET", "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	ts.api.SetDraining()
	if code, _ := ts.do(t, "GET", "/healthz", "", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", code)
	}
	if code, _ := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: %d", code)
	}
}

// batchBody mirrors the batch endpoint's response shape.
type batchBody struct {
	GraphID string       `json:"graph_id"`
	Results []batchEntry `json:"results"`
}

func TestBatchSolve(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadCycle(t, 8)
	var out batchBody
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut:batch", "application/json",
		[]byte(`{"seeds": [1, 2, 3], "want_partition": true}`), &out)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, raw)
	}
	if out.GraphID != id || len(out.Results) != 3 {
		t.Fatalf("batch body: %s", raw)
	}
	for i, e := range out.Results {
		if e.Seed != int64(i+1) || e.Status != "done" || e.Value == nil || *e.Value != 4 {
			t.Fatalf("entry %d: %+v", i, e)
		}
		if len(e.InCut) != 8 {
			t.Fatalf("entry %d partition length %d", i, len(e.InCut))
		}
		if e.JobID == "" {
			t.Fatalf("entry %d has no job id", i)
		}
	}
	// A duplicate seed inside a second batch is a cache hit.
	code, raw = ts.do(t, "POST", "/v1/graphs/"+id+"/mincut:batch", "application/json",
		[]byte(`{"seeds": [2], "want_partition": true}`), &out)
	if code != http.StatusOK || len(out.Results) != 1 || !out.Results[0].Cached {
		t.Fatalf("repeat batch not cached: %d %s", code, raw)
	}
}

func TestBatchValidation(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	for _, body := range []string{
		`{}`,                                    // no seeds
		`{"seeds": [1], "boost": -1}`,           // negative boost
		`{"items": [{"seed": 1, "boost": -2}]}`, // negative item boost
		`not json`,
	} {
		if code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut:batch", "application/json", []byte(body), nil); code != http.StatusBadRequest {
			t.Fatalf("batch %s: %d %s, want 400", body, code, raw)
		}
	}
	if code, _ := ts.do(t, "POST", "/v1/graphs/sha256:feed/mincut:batch", "application/json", []byte(`{"seeds":[1]}`), nil); code != http.StatusNotFound {
		t.Fatalf("batch on missing graph: %d", code)
	}
	var big strings.Builder
	big.WriteString(`{"seeds": [`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, "%d", i)
	}
	big.WriteString(`]}`)
	if code, _ := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut:batch", "application/json", []byte(big.String()), nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d, want 400", code)
	}
}

// TestOversizedStoerWagnerRejected: an explicit stoerwagner solve of a
// graph too large for its n×n matrix is a 400 on the single route and a
// "rejected" entry in a batch. The only worker is blocked, so a solve
// that is wrongly accepted queues and is canceled instead of running.
func TestOversizedStoerWagnerRejected(t *testing.T) {
	ts := newTestServer(t, 1)
	blocker := ts.startBlocker(t, ts.uploadCycle(t, 8))
	defer ts.cancelJob(t, blocker)
	var gr graphResponse
	if code, raw := ts.do(t, "POST", "/v1/graphs", "application/json", []byte(`{"n": 8193, "edges": []}`), &gr); code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, raw)
	}
	var jr jobResponse
	code, raw := ts.do(t, "POST", "/v1/graphs/"+gr.ID+"/mincut", "application/json",
		[]byte(`{"engine": "stoerwagner", "async": true}`), &jr)
	if code == http.StatusAccepted {
		ts.cancelJob(t, jr.JobID)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("stoerwagner solve of n=8193: %d %s, want 400", code, raw)
	}
	var out batchBody
	code, raw = ts.do(t, "POST", "/v1/graphs/"+gr.ID+"/mincut:batch", "application/json",
		[]byte(`{"seeds": [1], "engine": "stoerwagner", "timeout_ms": 1}`), &out)
	if code != http.StatusOK || len(out.Results) != 1 || out.Results[0].Status != "rejected" {
		t.Fatalf("stoerwagner batch of n=8193: %d %s, want one rejected entry", code, raw)
	}
}

// TestBoostMatchesLibrary: a boosted solve over HTTP, as a single request
// and as a mincut:batch item, returns the Value, TreesScanned and
// partition that parcut.MinCut returns for the same Seed, Boost and
// Engine on the uploaded (canonical) graph.
func TestBoostMatchesLibrary(t *testing.T) {
	ts := newTestServer(t, 2)
	g := parcut.RandomGraph(60, 240, 50, 42).Canonical()
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var gr graphResponse
	if code, raw := ts.do(t, "POST", "/v1/graphs", "", text.Bytes(), &gr); code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, raw)
	}
	for _, eng := range []string{"geissmann", "andersonblelloch"} {
		want, err := parcut.MinCut(g, parcut.Options{Seed: 5, Boost: 8, WantPartition: true, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		check := func(route string, value *int64, inCut []bool, trees int) {
			t.Helper()
			if value == nil || *value != want.Value || trees != want.TreesScanned || !slices.Equal(inCut, want.InCut) {
				t.Fatalf("%s %s: value %v, %d trees; library %d, %d trees (or partitions differ)",
					eng, route, value, trees, want.Value, want.TreesScanned)
			}
		}
		var jr jobResponse
		code, raw := ts.do(t, "POST", "/v1/graphs/"+gr.ID+"/mincut", "application/json",
			[]byte(fmt.Sprintf(`{"seed": 5, "boost": 8, "want_partition": true, "engine": %q}`, eng)), &jr)
		if code != http.StatusOK {
			t.Fatalf("%s mincut: %d %s", eng, code, raw)
		}
		check("mincut", jr.Value, jr.InCut, jr.TreesScanned)
		// A different seed in the batch, so the item is a fresh solve and
		// not the cached single request.
		want, err = parcut.MinCut(g, parcut.Options{Seed: 6, Boost: 8, WantPartition: true, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		var out batchBody
		code, raw = ts.do(t, "POST", "/v1/graphs/"+gr.ID+"/mincut:batch", "application/json",
			[]byte(fmt.Sprintf(`{"items": [{"seed": 6, "boost": 8}], "want_partition": true, "engine": %q}`, eng)), &out)
		if code != http.StatusOK || len(out.Results) != 1 || out.Results[0].Status != "done" || out.Results[0].Cached {
			t.Fatalf("%s batch: %d %s", eng, code, raw)
		}
		e := out.Results[0]
		check("mincut:batch", e.Value, e.InCut, e.TreesScanned)
	}
}

// TestBatchClientDisconnectCancelsJobs: dropping a batch request
// mid-flight must unwind its job — the running boost aborts between runs
// instead of burning the worker.
func TestBatchClientDisconnectCancelsJobs(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/graphs/"+id+"/mincut:batch",
			strings.NewReader(`{"items": [{"seed": 999, "boost": 1048576}], "engine": "geissmann"}`))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	ts.waitMetric(t, "mincutd_jobs_running", 1)
	cancel()
	<-done
	// The job must reach a terminal state without finishing its runs.
	ts.waitMetric(t, "mincutd_jobs_canceled_total", 1)
	ts.waitMetric(t, "mincutd_queue_depth", 0)
	ts.waitMetric(t, "mincutd_jobs_running", 0)
	if solves := ts.metric(t, "mincutd_solve_seconds_count"); solves != 0 {
		t.Fatalf("solver runs = %d, want 0 (the boost never completed)", solves)
	}
}

// TestMetricsCountBoostAsOneJob: a boosted solve is one submission, one
// dispatch, one completed job and one solver run in the Prometheus
// exposition, with no rejections.
func TestMetricsCountBoostAsOneJob(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadCycle(t, 8)
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 1, "boost": 3, "engine": "geissmann"}`), nil)
	if code != http.StatusOK {
		t.Fatalf("boosted solve: %d %s", code, raw)
	}
	for _, name := range []string{
		"mincutd_jobs_submitted_total",
		"mincutd_jobs_dispatched_total",
		"mincutd_jobs_completed_total",
		"mincutd_solve_seconds_count",
		"mincutd_jobs_running_peak",
	} {
		if n := ts.metric(t, name); n != 1 {
			t.Fatalf("%s = %d, want 1", name, n)
		}
	}
	if n := ts.metric(t, "mincutd_jobs_rejected_total"); n != 0 {
		t.Fatalf("rejected = %d, want 0", n)
	}
}

// newStoreServer boots a server whose registry is backed by a disk store
// in dir, returning both so tests can restart on the same directory.
func newStoreServer(t *testing.T, dir string, cacheBytes, maxDiskBytes int64) *testServer {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, MaxDiskBytes: maxDiskBytes})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(cacheBytes, st)
	sch := sched.New(sched.Config{Workers: 2})
	api := New(reg, sch, st, Options{})
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		if err := sch.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
		st.Close()
	})
	return &testServer{Server: ts, api: api, sch: sch}
}

func TestBatchUpload(t *testing.T) {
	ts := newTestServer(t, 2)
	// One text graph, one JSON graph, a duplicate of the first, a bad
	// edge, and an ambiguous item — each gets its own status.
	body := `{"graphs": [
		{"text": "p cut 3 2\ne 0 1 5\ne 1 2 7\n"},
		{"n": 4, "edges": [[0,1,3],[1,2,1],[2,3,4],[3,0,2]]},
		{"text": "c dup\np cut 3 2\ne 1 2 7\ne 0 1 5\n"},
		{"n": 2, "edges": [[0,9,1]]},
		{}
	]}`
	var resp struct {
		Results []batchUploadEntry `json:"results"`
	}
	code, raw := ts.do(t, "POST", "/v1/graphs:batch", "application/json", []byte(body), &resp)
	if code != http.StatusOK || len(resp.Results) != 5 {
		t.Fatalf("batch upload: %d %s", code, raw)
	}
	wantStatus := []string{"created", "created", "existed", "failed", "failed"}
	for i, want := range wantStatus {
		if resp.Results[i].Status != want {
			t.Fatalf("item %d: status %q, want %q (%s)", i, resp.Results[i].Status, want, raw)
		}
		if resp.Results[i].Index != i {
			t.Fatalf("item %d: index %d", i, resp.Results[i].Index)
		}
	}
	if resp.Results[2].ID != resp.Results[0].ID {
		t.Fatalf("duplicate upload got id %q, want %q", resp.Results[2].ID, resp.Results[0].ID)
	}
	if resp.Results[3].Error == "" || resp.Results[4].Error == "" {
		t.Fatalf("failed items lack errors: %s", raw)
	}
	// The batch-uploaded JSON graph solves normally.
	var jr jobResponse
	code, raw = ts.do(t, "POST", "/v1/graphs/"+resp.Results[1].ID+"/mincut", "application/json", []byte(`{"seed":1}`), &jr)
	if code != http.StatusOK || jr.Value == nil || *jr.Value != 3 {
		t.Fatalf("solve of batch-uploaded graph: %d %s", code, raw)
	}
}

func TestBatchUploadValidation(t *testing.T) {
	ts := newTestServer(t, 1)
	for _, bad := range []string{`{}`, `{"graphs": []}`, `not json`} {
		if code, raw := ts.do(t, "POST", "/v1/graphs:batch", "application/json", []byte(bad), nil); code != http.StatusBadRequest {
			t.Fatalf("batch %q: %d %s", bad, code, raw)
		}
	}
	var big strings.Builder
	big.WriteString(`{"graphs": [`)
	for i := 0; i <= maxBatchUploadItems; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`{"text": "x"}`)
	}
	big.WriteString(`]}`)
	if code, raw := ts.do(t, "POST", "/v1/graphs:batch", "application/json", []byte(big.String()), nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d %s", code, raw)
	}
}

// TestDeleteGraphInvalidatesResultCache is the staleness-hole regression
// test: DELETE must drop the scheduler's cached results for the graph
// hash, so a re-upload of the same content (same content-addressed ID)
// is re-solved, not served a cut cached before the delete.
func TestDeleteGraphInvalidatesResultCache(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadCycle(t, 8)
	solve := func() jobResponse {
		var jr jobResponse
		code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json", []byte(`{"seed":5}`), &jr)
		if code != http.StatusOK {
			t.Fatalf("solve: %d %s", code, raw)
		}
		return jr
	}
	if jr := solve(); jr.Cached {
		t.Fatal("first solve reported cached")
	}
	if jr := solve(); !jr.Cached {
		t.Fatal("repeat solve not cached")
	}

	var del struct {
		Deleted     bool `json:"deleted"`
		Invalidated int  `json:"invalidated_results"`
	}
	code, raw := ts.do(t, "DELETE", "/v1/graphs/"+id, "", nil, &del)
	if code != http.StatusOK || !del.Deleted || del.Invalidated != 1 {
		t.Fatalf("delete: %d %s", code, raw)
	}
	if code, _ := ts.do(t, "GET", "/v1/graphs/"+id, "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("graph info after delete: %d", code)
	}
	if code, _ := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json", []byte(`{"seed":5}`), nil); code != http.StatusNotFound {
		t.Fatalf("solve after delete: %d", code)
	}
	if code, _ := ts.do(t, "DELETE", "/v1/graphs/"+id, "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("second delete: %d", code)
	}

	// Re-upload recreates the same ID; its first solve must re-run.
	if id2 := ts.uploadCycle(t, 8); id2 != id {
		t.Fatalf("re-upload got %q, want %q", id2, id)
	}
	if jr := solve(); jr.Cached {
		t.Fatal("solve after re-upload served from stale cache")
	}
}

// TestStoreBackedServerSurvivesRestart exercises the full persistence
// path over HTTP: upload to a disk-backed server, restart on the same
// data dir, solve without re-uploading, and watch the store metrics.
func TestStoreBackedServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts := newStoreServer(t, dir, 0, 0)
	id := ts.uploadCycle(t, 8)
	if g, rec := ts.metric(t, "mincutd_store_graphs"), ts.metric(t, "mincutd_store_recovered_graphs_total"); g != 1 || rec != 0 {
		t.Fatalf("store metrics after upload: graphs=%d recovered=%d", g, rec)
	}
	ts.Close()

	ts2 := newStoreServer(t, dir, 0, 0)
	if rec := ts2.metric(t, "mincutd_store_recovered_graphs_total"); rec != 1 {
		t.Fatalf("recovered = %d, want 1", rec)
	}
	if corrupt := ts2.metric(t, "mincutd_store_corrupt_tail_total"); corrupt != 0 {
		t.Fatalf("corrupt tails = %d, want 0", corrupt)
	}
	var jr jobResponse
	code, raw := ts2.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json", []byte(`{"seed":1}`), &jr)
	if code != http.StatusOK || jr.Value == nil || *jr.Value != 4 {
		t.Fatalf("solve after restart: %d %s", code, raw)
	}
	// DELETE reaches the disk too: a third instance starts empty.
	if code, raw := ts2.do(t, "DELETE", "/v1/graphs/"+id, "", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, raw)
	}
	ts2.Close()
	ts3 := newStoreServer(t, dir, 0, 0)
	if code, _ := ts3.do(t, "GET", "/v1/graphs/"+id, "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted graph survived restart: %d", code)
	}
}

// TestUploadChargesVertices: the registry budget charges 8 bytes per
// vertex as well as 16 per edge, so an upload of 2^30 vertices and no
// edges, whose every solve would allocate O(n) arrays, exceeds mincutd's
// default 1 GiB budget and answers 400, as an oversized edge list does.
// A small graph's "bytes" counts both.
func TestUploadChargesVertices(t *testing.T) {
	sch := sched.New(sched.Config{Workers: 1})
	t.Cleanup(func() { _ = sch.Shutdown(context.Background()) })
	h := New(registry.New(1<<30, nil), sch, nil, Options{}).Handler()
	post := func(body string) (int, []byte) {
		req := httptest.NewRequest("POST", "/v1/graphs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	if code, raw := post(`{"n": 1073741824, "edges": []}`); code != http.StatusBadRequest {
		t.Fatalf("upload of 2^30 edgeless vertices: %d %s, want 400", code, raw)
	}
	code, raw := post(`{"n": 3, "edges": [[0,1,5],[1,2,7]]}`)
	var gr graphResponse
	if code != http.StatusCreated || json.Unmarshal(raw, &gr) != nil || gr.Bytes != 3*8+2*16 {
		t.Fatalf("upload of a 3-vertex 2-edge graph: %d %s, want 201 with 56 bytes", code, raw)
	}
}

// TestUploadErrorCodes: a full disk answers 507 (server-side capacity),
// never 400 (client fault), on both the single and batch upload paths.
func TestUploadErrorCodes(t *testing.T) {
	ts := newStoreServer(t, t.TempDir(), 0, 40) // room for one tiny graph
	body := []byte("p cut 3 2\ne 0 1 5\ne 1 2 7\n")
	if code, raw := ts.do(t, "POST", "/v1/graphs", "", body, nil); code != http.StatusCreated {
		t.Fatalf("first upload: %d %s", code, raw)
	}
	big := []byte("p cut 4 4\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 3 0 1\n")
	code, raw := ts.do(t, "POST", "/v1/graphs", "", big, nil)
	if code != http.StatusInsufficientStorage {
		t.Fatalf("over-budget upload: %d %s, want 507", code, raw)
	}
	var resp struct {
		Results []batchUploadEntry `json:"results"`
	}
	code, raw = ts.do(t, "POST", "/v1/graphs:batch", "application/json",
		[]byte(`{"graphs":[{"text":"p cut 4 4\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 3 0 1\n"}]}`), &resp)
	if code != http.StatusOK || len(resp.Results) != 1 || resp.Results[0].Status != "failed" {
		t.Fatalf("batch over budget: %d %s", code, raw)
	}
	if !strings.Contains(resp.Results[0].Error, "disk budget") {
		t.Fatalf("batch error = %q, want disk budget mention", resp.Results[0].Error)
	}
	// A parse error is still the client's 400.
	if code, _ := ts.do(t, "POST", "/v1/graphs", "", []byte("garbage"), nil); code != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d, want 400", code)
	}
}

// TestOversizedUploadIs413: a text or JSON body that fails with
// *http.MaxBytesError answers 413, wherever the cap falls, also inside a
// line or value that then does not parse or after a complete value; a
// text body fails decodeUpload with that error. That holds for single and
// batch uploads, on a single node and on a cluster node, both as the entry
// node that reads the body to place it and as the owner a peer forwarded
// it to. The body fails on its own, so no body past maxUploadBytes is
// needed.
func TestOversizedUploadIs413(t *testing.T) {
	ts := newTestServer(t, 1)
	nodes := newTestCluster(t, 2)
	tooBig := &http.MaxBytesError{Limit: maxUploadBytes}
	targets := []struct {
		name          string
		h             http.Handler
		forwardedFrom string
	}{
		{"single node", ts.api.Handler(), ""},
		{"cluster entry node", nodes[0].api.Handler(), ""},
		{"cluster owner", nodes[0].api.Handler(), nodes[1].addr},
	}
	for _, tc := range []struct{ path, contentType, body string }{
		{"/v1/graphs", "text/plain", "p cut 3 2\ne 0 1 5\ne 1 2"},
		{"/v1/graphs", "text/plain", "p cut 3 2\ne 0 1 5\ne 1 2 7\n"},
		{"/v1/graphs", "text/plain", "p c"},
		{"/v1/graphs", "application/json", `{"n": 3, "edges": [[0, 1, 5], [1, 2`},
		{"/v1/graphs", "application/json", `{"n": 3, "edges": [[0, 1, 5]]} `},
		{"/v1/graphs:batch", "application/json", `{"graphs": [{"text": "p cut 3 2\ne 0 1`},
		{"/v1/graphs:batch", "application/json", `{"graphs": [{"n": 2, "edges": [[0, 1, 4]]}]} `},
	} {
		cut := func() io.Reader { return io.MultiReader(strings.NewReader(tc.body), iotest.ErrReader(tooBig)) }
		if tc.contentType == "text/plain" {
			var got *http.MaxBytesError
			if _, err := decodeUpload(tc.contentType, cut()); !errors.As(err, &got) {
				t.Errorf("%q then *http.MaxBytesError: decode error %v", tc.body, err)
			}
		}
		for _, tg := range targets {
			req := httptest.NewRequest("POST", tc.path, cut())
			req.Header.Set("Content-Type", tc.contentType)
			if tg.forwardedFrom != "" {
				req.Header.Set(cluster.ForwardedFromHeader, tg.forwardedFrom)
			}
			rec := httptest.NewRecorder()
			tg.h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s: %s %s %q then *http.MaxBytesError: %d %s, want 413", tg.name, tc.path, tc.contentType, tc.body, rec.Code, rec.Body)
			}
		}
	}
	if code, _ := ts.do(t, "POST", "/v1/graphs", "", []byte("p cut 3 2\ne 0 1 5\ne 1 2"), nil); code != http.StatusBadRequest {
		t.Fatalf("whole body with a short edge line: %d, want 400", code)
	}
}

// TestGraphInfoDoesNotFaultBytesIn: GET /v1/graphs/{id} on an evicted
// graph answers from the index without a disk load, and a solve whose
// body is refused makes none either.
func TestGraphInfoDoesNotFaultBytesIn(t *testing.T) {
	ts := newStoreServer(t, t.TempDir(), 56, 0) // one 3-vertex 2-edge graph resident
	var first graphResponse
	code, raw := ts.do(t, "POST", "/v1/graphs", "", []byte("p cut 3 2\ne 0 1 5\ne 1 2 7\n"), &first)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, raw)
	}
	if code, raw := ts.do(t, "POST", "/v1/graphs", "", []byte("p cut 3 2\ne 0 1 8\ne 1 2 8\n"), nil); code != http.StatusCreated {
		t.Fatalf("second upload: %d %s", code, raw) // evicts the first
	}
	var info graphResponse
	if code, raw := ts.do(t, "GET", "/v1/graphs/"+first.ID, "", nil, &info); code != http.StatusOK || info.M != 2 {
		t.Fatalf("info of evicted graph: %d %s", code, raw)
	}
	if loads := ts.metric(t, "mincutd_graph_store_loads_total"); loads != 0 {
		t.Fatalf("info read faulted bytes in: %d loads", loads)
	}
	for _, route := range []string{"/mincut", "/mincut:batch"} {
		if code, raw := ts.do(t, "POST", "/v1/graphs/"+first.ID+route, "application/json", []byte(`{"seeds": [1], "boost": -1}`), nil); code != http.StatusBadRequest {
			t.Fatalf("refused solve on %s: %d %s, want 400", route, code, raw)
		}
	}
	if loads := ts.metric(t, "mincutd_graph_store_loads_total"); loads != 0 {
		t.Fatalf("refused solves faulted bytes in: %d loads", loads)
	}
	if code, _ := ts.do(t, "GET", "/v1/graphs/sha256:nope", "", nil, nil); code != http.StatusNotFound {
		t.Fatal("unknown id not 404")
	}
}

// TestPoolMetricsExposed: /metrics must render the solve executor's
// counters, and the arena series must move after a solve (every solver run
// borrows its working arrays from the worker executor's arena).
func TestPoolMetricsExposed(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 64)
	// Force the paper engine: "auto" resolves small graphs to a
	// sequential backend that never exercises the executor.
	for seed := 1; seed <= 2; seed++ {
		var jr jobResponse
		body := []byte(fmt.Sprintf(`{"seed": %d, "engine": "geissmann"}`, seed))
		if code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json", body, &jr); code != http.StatusOK {
			t.Fatalf("solve: %d %s", code, raw)
		}
	}
	for _, name := range []string{
		"mincutd_pool_forks_total",
		"mincutd_pool_steals_total",
		"mincutd_pool_inline_runs_total",
		"mincutd_pool_arena_hits_total",
		"mincutd_pool_arena_misses_total",
	} {
		ts.metric(t, name) // fails the test if the series is absent
	}
	if v := ts.metric(t, "mincutd_pool_arena_misses_total"); v == 0 {
		t.Error("mincutd_pool_arena_misses_total = 0 after solving, want > 0")
	}
	if v := ts.metric(t, "mincutd_pool_arena_hits_total"); v == 0 {
		t.Error("mincutd_pool_arena_hits_total = 0 after two solves, want > 0")
	}
	if v := ts.metric(t, "mincutd_pool_inline_runs_total"); v != 0 {
		t.Errorf("mincutd_pool_inline_runs_total = %d, want 0", v)
	}
}
