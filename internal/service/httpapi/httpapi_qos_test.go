package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	parcut "repro"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
)

// newTestServerCfg is newTestServer with full scheduler control (class
// weights, queue caps).
func newTestServerCfg(t *testing.T, cfg sched.Config) *testServer {
	t.Helper()
	reg := registry.New(0, nil)
	sch := sched.New(cfg)
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

// metricLabeled scrapes one labelled sample, e.g.
// metricLabeled(t, `mincutd_queue_depth{class="background"}`).
func (ts *testServer) metricLabeled(t *testing.T, sample string) int64 {
	t.Helper()
	code, body := ts.do(t, "GET", "/metrics", "", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("sample %s missing from:\n%s", sample, body)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// uploadRandom uploads a random multi-tree graph in the text format and
// returns its ID.
func (ts *testServer) uploadRandom(t *testing.T, n, m int, seed int64) string {
	t.Helper()
	g := parcut.RandomGraph(n, m, 30, seed)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var gr graphResponse
	code, raw := ts.do(t, "POST", "/v1/graphs", "", buf.Bytes(), &gr)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, raw)
	}
	return gr.ID
}

// TestJobEventsStream is the live-progress acceptance test: the NDJSON
// stream of a multi-tree solve must carry the lifecycle, the packing and
// scan phase transitions, and terminate with the final result event.
func TestJobEventsStream(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadRandom(t, 60, 200, 11)

	var jr jobResponse
	// Pin the paper engine: the test asserts its packing/scan phase
	// transitions, and the default "auto" sends a 60-vertex graph to
	// stoerwagner (whose contract phase httpapi_engines_test covers).
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 3, "class": "batch", "async": true, "engine": "geissmann"}`), &jr)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if jr.Class != "batch" {
		t.Fatalf("async response class = %q, want batch", jr.Class)
	}

	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/jobs/" + jr.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type event struct {
		Seq      int      `json:"seq"`
		Type     string   `json:"type"`
		State    string   `json:"state"`
		Phase    string   `json:"phase"`
		Value    *int64   `json:"value"`
		Fraction *float64 `json:"fraction"`
		Terminal bool     `json:"terminal"`
	}
	var events []event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev.Terminal {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events streamed: %+v", len(events), events)
	}
	if events[0].Type != "state" || events[0].State != "queued" || events[0].Seq != 0 {
		t.Fatalf("first event = %+v, want state=queued seq=0", events[0])
	}
	sawRunning := false
	phases := map[string]bool{}
	for _, ev := range events {
		if ev.Type == "state" && ev.State == "running" {
			sawRunning = true
		}
		if ev.Type == "phase" {
			phases[ev.Phase] = true
		}
	}
	if !sawRunning {
		t.Fatalf("no running transition in %+v", events)
	}
	if !phases["packing"] || !phases["scan"] {
		t.Fatalf("phase transitions %v, want packing and scan", phases)
	}
	last := events[len(events)-1]
	if !last.Terminal || last.Type != "result" || last.State != "done" || last.Value == nil {
		t.Fatalf("terminal event = %+v, want done result with value", last)
	}

	// Resuming from the end yields exactly the terminal tail, no repeats.
	resp2, err := client.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, jr.JobID, last.Seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	n := 0
	for sc2.Scan() {
		n++
	}
	if n != 1 {
		t.Fatalf("resume from final seq streamed %d events, want 1", n)
	}
}

// TestJobStatusReportsClassAndProgress: GET /v1/jobs/{id} carries the QoS
// class and a live progress block while the job is queued or running.
func TestJobStatusReportsClassAndProgress(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 8)
	blocker := ts.startBlocker(t, id)

	var jr jobResponse
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 5, "class": "background", "async": true}`), &jr)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	var st jobResponse
	code, raw = ts.do(t, "GET", "/v1/jobs/"+jr.JobID, "", nil, &st)
	if code != http.StatusOK {
		t.Fatalf("job status: %d %s", code, raw)
	}
	if st.Status != "queued" || st.Class != "background" {
		t.Fatalf("status = %+v, want queued background", st)
	}
	if st.Progress == nil || st.Fraction == nil {
		t.Fatalf("queued job has no progress block: %s", raw)
	}
	if d := ts.metricLabeled(t, `mincutd_queue_depth{class="background"}`); d != 1 {
		t.Fatalf("background queue depth = %d, want 1", d)
	}

	ts.cancelJob(t, blocker)
	ts.waitMetricAtLeast(t, "mincutd_jobs_completed_total", 1)
	code, raw = ts.do(t, "GET", "/v1/jobs/"+jr.JobID, "", nil, &st)
	if code != http.StatusOK || st.Status != "done" || st.Value == nil {
		t.Fatalf("finished job status: %d %s", code, raw)
	}
	if st.Fraction == nil || *st.Fraction != 1 {
		t.Fatalf("done job fraction = %v, want 1", st.Fraction)
	}
}

// TestClassValidationAndCapRejections: an unknown class is a 400; a class
// whose queue cap is full gets 429 and the labelled rejection counter.
func TestClassValidationAndCapRejections(t *testing.T) {
	ts := newTestServerCfg(t, sched.Config{
		Workers:        1,
		ClassQueueCaps: map[sched.Class]int{sched.ClassBackground: 1},
	})
	id := ts.uploadCycle(t, 8)

	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"class": "express"}`), nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown class: %d %s", code, raw)
	}

	blocker := ts.startBlocker(t, id)
	defer ts.cancelJob(t, blocker)
	// Pin the seeded paper engine: under "auto" this graph resolves to
	// stoerwagner, where both seeds normalize to one cache key and the
	// second submit would coalesce instead of tripping the cap.
	if code, raw = ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 1, "class": "background", "async": true, "engine": "geissmann"}`), nil); code != http.StatusAccepted {
		t.Fatalf("first background submit: %d %s", code, raw)
	}
	code, raw = ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 2, "class": "background", "async": true, "engine": "geissmann"}`), nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: %d %s, want 429", code, raw)
	}
	if v := ts.metricLabeled(t, `mincutd_jobs_rejected_total{reason="class_cap"}`); v != 1 {
		t.Fatalf("class_cap rejections = %d, want 1", v)
	}
	if v := ts.metric(t, "mincutd_jobs_rejected_total"); v != 1 {
		t.Fatalf("unlabelled rejected sum = %d, want 1", v)
	}
}

// TestBatchUploadGroupCommitsToDisk: a store-backed batch upload commits
// all graphs with two fsync barriers, visible in the fsync metric.
func TestBatchUploadGroupCommitsToDisk(t *testing.T) {
	ts := newStoreServer(t, t.TempDir(), 1<<20, 0)
	body := `{"graphs": [
		{"text": "p cut 3 2\ne 0 1 5\ne 1 2 7\n"},
		{"n": 4, "edges": [[0,1,3],[1,2,1],[2,3,4],[3,0,2]]},
		{"text": "p cut 3 2\ne 0 1 9\ne 1 2 9\n"}
	]}`
	var out struct {
		Results []batchUploadEntry `json:"results"`
	}
	code, raw := ts.do(t, "POST", "/v1/graphs:batch", "application/json", []byte(body), &out)
	if code != http.StatusOK {
		t.Fatalf("batch upload: %d %s", code, raw)
	}
	for i, r := range out.Results {
		if r.Status != "created" {
			t.Fatalf("item %d: %+v", i, r)
		}
	}
	if v := ts.metric(t, "mincutd_store_fsyncs_total"); v != 2 {
		t.Fatalf("batch of 3 graphs issued %d fsyncs, want 2 (group commit)", v)
	}
	// The graphs are really there: solve one.
	var jr jobResponse
	code, raw = ts.do(t, "POST", "/v1/graphs/"+out.Results[0].ID+"/mincut", "application/json",
		[]byte(`{"seed": 1}`), &jr)
	if code != http.StatusOK || jr.Value == nil || *jr.Value != 5 {
		t.Fatalf("solve after batch upload: %d %s", code, raw)
	}
}
