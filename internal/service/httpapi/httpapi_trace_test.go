package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service/registry"
	"repro/internal/service/sched"
	"repro/internal/trace"
)

// newTracedServer wires a server whose scheduler publishes traces into a
// ring the API serves.
func newTracedServer(t *testing.T) *testServer {
	t.Helper()
	ring := trace.NewRing(16)
	reg := registry.New(0, nil)
	sch := sched.New(sched.Config{Workers: 2, Traces: ring})
	api := New(reg, sch, nil, Options{Traces: ring, Version: "test-build"})
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

// solveSync runs one synchronous solve and returns the job ID.
func solveSync(t *testing.T, ts *testServer, graphID, body string) string {
	t.Helper()
	var resp struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
	}
	code, raw := ts.do(t, "POST", "/v1/graphs/"+graphID+"/mincut", "application/json", []byte(body), &resp)
	if code != http.StatusOK || resp.Status != "done" {
		t.Fatalf("solve: %d %s", code, raw)
	}
	return resp.JobID
}

// TestTraceEndpoints is the end-to-end acceptance path of the tracing
// tentpole: solve over HTTP, fetch the job's span tree by ID, and list
// it with filters.
func TestTraceEndpoints(t *testing.T) {
	ts := newTracedServer(t)
	id := ts.uploadCycle(t, 32)
	// Pin the paper engine: this test asserts its packing/scan span chain,
	// and the default "auto" sends a 32-vertex graph to stoerwagner.
	jobID := solveSync(t, ts, id, `{"seed": 3, "engine": "geissmann"}`)

	var tr trace.Trace
	code, raw := ts.do(t, "GET", "/v1/traces/"+jobID, "", nil, &tr)
	if code != http.StatusOK {
		t.Fatalf("GET trace: %d %s", code, raw)
	}
	names := map[string]int{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"job", "queue-wait", "http", "run", "packing", "scan"} {
		if names[want] == 0 {
			t.Fatalf("trace lacks %q span; have %v", want, names)
		}
	}
	if tr.RootAttr("graph") != id {
		t.Fatalf("root graph attr = %q, want %q", tr.RootAttr("graph"), id)
	}

	var list struct {
		Traces []traceSummary `json:"traces"`
		Total  int64          `json:"total"`
	}
	code, raw = ts.do(t, "GET", "/v1/traces?graph="+id, "", nil, &list)
	if code != http.StatusOK || len(list.Traces) != 1 || list.Traces[0].ID != jobID {
		t.Fatalf("list by graph: %d %s", code, raw)
	}
	if list.Traces[0].Spans != len(tr.Spans) || list.Traces[0].State != "done" {
		t.Fatalf("summary row wrong: %+v", list.Traces[0])
	}
	// A silly threshold filters everything; both spellings parse.
	for _, q := range []string{"1h", "3600000"} {
		code, _ = ts.do(t, "GET", "/v1/traces?min_duration="+q, "", nil, &list)
		if code != http.StatusOK || len(list.Traces) != 0 {
			t.Fatalf("min_duration=%s: %d with %d rows", q, code, len(list.Traces))
		}
	}
	code, _ = ts.do(t, "GET", "/v1/traces?min_duration=bogus", "", nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad min_duration: %d", code)
	}
	code, _ = ts.do(t, "GET", "/v1/traces?limit=0", "", nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad limit: %d", code)
	}
	code, _ = ts.do(t, "GET", "/v1/traces/job-9999", "", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d", code)
	}
}

// TestTracesDisabled: without a ring the trace routes are a clean 404,
// not a panic or an empty 200.
func TestTracesDisabled(t *testing.T) {
	ts := newTestServer(t, 1)
	for _, path := range []string{"/v1/traces", "/v1/traces/job-1"} {
		if code, _ := ts.do(t, "GET", path, "", nil, nil); code != http.StatusNotFound {
			t.Fatalf("%s without tracing: %d, want 404", path, code)
		}
	}
}

// TestRequestIDHeader: responses carry an X-Request-Id; a client-supplied
// one is echoed back and lands on the job trace's http span.
func TestRequestIDHeader(t *testing.T) {
	ts := newTracedServer(t)
	id := ts.uploadCycle(t, 16)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id assigned")
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/graphs/"+id+"/mincut", strings.NewReader(`{"seed": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-abc")
	req.Header.Set("Content-Type", "application/json")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc" {
		t.Fatalf("X-Request-Id = %q, want echo of client-abc", got)
	}
	var tr trace.Trace
	if code, raw := ts.do(t, "GET", "/v1/traces/"+jr.JobID, "", nil, &tr); code != http.StatusOK {
		t.Fatalf("GET trace: %d %s", code, raw)
	}
	found := false
	for _, sp := range tr.Spans {
		if sp.Name != "http" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "request_id" && a.Value == "client-abc" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("http span lacks request_id=client-abc: %+v", tr.Spans)
	}
}

// TestHealthzBuildInfo: /healthz reports the build, and /metrics carries
// the build_info gauge plus the histogram families after a solve. One
// geissmann solve (packing, scan) and one stoerwagner solve (contract)
// record each phase exactly once, in series that all carry the engine.
func TestHealthzBuildInfo(t *testing.T) {
	ts := newTracedServer(t)
	var hz map[string]string
	code, raw := ts.do(t, "GET", "/healthz", "", nil, &hz)
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d %s", code, raw)
	}
	if hz["version"] != "test-build" || hz["go_version"] != runtime.Version() || hz["status"] != "ok" {
		t.Fatalf("/healthz = %v", hz)
	}

	id := ts.uploadCycle(t, 32)
	solveSync(t, ts, id, `{"seed": 3, "engine": "geissmann"}`)
	solveSync(t, ts, id, `{"engine": "stoerwagner"}`)
	code, body := ts.do(t, "GET", "/metrics", "", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`mincutd_build_info{version="test-build",go_version="` + runtime.Version() + `"} 1`,
		`mincutd_solve_duration_seconds_bucket{class="interactive",phase="packing",engine="geissmann",le="+Inf"} 1`,
		`mincutd_solve_duration_seconds_count{class="interactive",phase="scan",engine="geissmann"} 1`,
		`mincutd_solve_duration_seconds_count{class="interactive",phase="contract",engine="stoerwagner"} 1`,
		`mincutd_queue_wait_seconds_bucket{class="interactive",le="+Inf"}`,
		`mincutd_http_request_duration_seconds_bucket{route="POST /v1/graphs/{id}/mincut",code="200",le="+Inf"} 2`,
		// The pre-histogram queue-wait sums must survive for old dashboards.
		`mincutd_queue_wait_seconds_total{class="interactive"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics lacks %s in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "mincutd_solve_phase_seconds") {
		t.Fatalf("/metrics still carries the mincutd_solve_phase_seconds summary:\n%s", text)
	}
	var phases int64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "mincutd_solve_duration_seconds") {
			continue
		}
		if !strings.Contains(line, `engine="`) {
			t.Fatalf("solve-duration series without an engine label: %s", line)
		}
		if strings.HasPrefix(line, "mincutd_solve_duration_seconds_count{") {
			n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			phases += n
		}
	}
	if phases != 3 {
		t.Fatalf("solve-duration counts sum to %d, want 3 (packing + scan + contract, each once)", phases)
	}
}

// TestJobEventsFromBeyondEnd is the regression test for resume cursors
// past the end of a finished event log: the stream must be an empty 200
// that terminates, never a 400 and never a hang.
func TestJobEventsFromBeyondEnd(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 16)
	jobID := solveSync(t, ts, id, `{"seed": 1}`)

	done := make(chan struct{})
	go func() {
		defer close(done)
		code, body := ts.do(t, "GET", "/v1/jobs/"+jobID+"/events?from=999999", "", nil, nil)
		if code != http.StatusOK {
			t.Errorf("from beyond end: %d %s", code, body)
		}
		if len(body) != 0 {
			t.Errorf("from beyond end: body %q, want empty", body)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("events stream with from beyond end hung")
	}

	// Sanity: a valid cursor still replays the tail, ending in the result.
	code, body := ts.do(t, "GET", "/v1/jobs/"+jobID+"/events?from=0", "", nil, nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"type":"result"`) {
		t.Fatalf("full replay: %d %s", code, body)
	}
	if code, _ := ts.do(t, "GET", "/v1/jobs/"+jobID+"/events?from=-1", "", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("negative from: %d, want 400", code)
	}
}
