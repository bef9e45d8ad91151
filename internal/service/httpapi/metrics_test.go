package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service/registry"
	"repro/internal/service/sched"
	"repro/internal/service/store"
)

// TestMetricsExposition pins the /metrics exposition of a store-backed
// server: after a fixed sequence of requests (an upload, one solve per
// engine, a cache hit, a class-cap refusal behind a blocker and a queued
// job, both then canceled, and a 404), every HELP and TYPE line and every
// series key (name and labels, value stripped) must match the golden file
// in order. Every unlabelled total must equal the sum of its labelled
// series, and the per-class queue-wait and dispatch counters must equal
// the queue-wait histogram's _sum and _count.
func TestMetricsExposition(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(0, st)
	sch := sched.New(sched.Config{
		Workers:        1,
		ClassQueueCaps: map[sched.Class]int{sched.ClassBackground: 1},
	})
	api := New(reg, sch, st, Options{Version: "test"})
	ts := &testServer{Server: httptest.NewServer(api.Handler()), api: api, sch: sch}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		if err := sch.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
		st.Close()
	})

	id := ts.uploadCycle(t, 8)
	solve := func(body string, want int) {
		t.Helper()
		if code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json", []byte(body), nil); code != want {
			t.Fatalf("solve %s: %d %s, want %d", body, code, raw, want)
		}
	}
	for _, eng := range []string{"geissmann", "stoerwagner", "andersonblelloch"} {
		solve(`{"seed": 1, "engine": "`+eng+`"}`, http.StatusOK)
	}
	solve(`{"seed": 1, "engine": "geissmann"}`, http.StatusOK) // cache hit
	blocker := ts.startBlocker(t, id)
	var queued jobResponse
	if code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed": 2, "class": "background", "async": true, "engine": "geissmann"}`), &queued); code != http.StatusAccepted {
		t.Fatalf("background submit: %d %s", code, raw)
	}
	solve(`{"seed": 3, "class": "background", "async": true, "engine": "geissmann"}`, http.StatusTooManyRequests)
	ts.cancelJob(t, queued.JobID)
	ts.cancelJob(t, blocker)
	if code, _ := ts.do(t, "GET", "/v1/graphs/sha256:nope", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", code)
	}
	ts.waitMetric(t, "mincutd_jobs_canceled_total", 2)
	ts.waitMetric(t, "mincutd_jobs_running", 0)

	_, body := ts.do(t, "GET", "/metrics", "", nil, nil)
	var keys []string
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			keys = append(keys, line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		key := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		values[key] = v
		keys = append(keys, strings.Replace(key, runtime.Version(), "GO_VERSION", 1))
	}
	golden, err := os.ReadFile("testdata/metrics_exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for i := 0; i < len(keys) || i < len(want); i++ {
		var got, exp string
		if i < len(keys) {
			got = keys[i]
		}
		if i < len(want) {
			exp = want[i]
		}
		if got != exp {
			t.Fatalf("exposition line %d = %q, golden has %q", i+1, got, exp)
		}
	}

	// Each unlabelled sample with labelled siblings is their total, once
	// per label set: completed sums both by class and by class and engine.
	sums := map[string]float64{}
	for key, v := range values {
		name, labels, ok := strings.Cut(key, "{")
		if !ok {
			continue
		}
		var names []string
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), `",`) {
			names = append(names, kv[:strings.IndexByte(kv, '=')])
		}
		sums[name+"{"+strings.Join(names, ",")+"}"] += v
	}
	totals := 0
	for set, sum := range sums {
		name, _, _ := strings.Cut(set, "{")
		total, ok := values[name]
		if !ok {
			continue
		}
		totals++
		if sum != total {
			t.Errorf("%s = %g, but its %s series sum to %g", name, total, set, sum)
		}
	}
	if totals < 6 {
		t.Errorf("found %d unlabelled totals with labelled series, want at least 6", totals)
	}
	for _, c := range sched.Classes {
		class := `{class="` + string(c) + `"}`
		if w, s := values["mincutd_queue_wait_seconds_total"+class], values["mincutd_queue_wait_seconds_sum"+class]; w != s {
			t.Errorf("class %s: queue_wait_seconds_total %g != queue_wait_seconds_sum %g", c, w, s)
		}
		if d, n := values["mincutd_jobs_dispatched_total"+class], values["mincutd_queue_wait_seconds_count"+class]; d != n {
			t.Errorf("class %s: jobs_dispatched_total %g != queue_wait_seconds_count %g", c, d, n)
		}
	}
	if values[`mincutd_jobs_rejected_total{reason="class_cap"}`] != 1 || values["mincutd_cache_hits_total"] != 1 {
		t.Errorf("class_cap rejections %g, cache hits %g; want 1 and 1",
			values[`mincutd_jobs_rejected_total{reason="class_cap"}`], values["mincutd_cache_hits_total"])
	}
}
