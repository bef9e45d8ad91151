package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestMinCutEngineSelection drives engine values end-to-end through
// POST /v1/graphs/{id}/mincut: all of them produce the same cut value on
// the same graph, the response reports the concrete engine ("auto" and the
// default report what was picked), auto shares cache entries with the
// explicit engine it resolves to, and an unknown engine — including the
// retired "kargerstein" — is a 400.
func TestMinCutEngineSelection(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadCycle(t, 60)

	resolved := map[string]string{}
	values := map[string]int64{}
	cached := map[string]bool{}
	for _, e := range []string{"", "auto", "stoerwagner", "geissmann", "andersonblelloch"} {
		body, _ := json.Marshal(map[string]any{"engine": e, "seed": 1})
		var jr jobResponse
		code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json", body, &jr)
		if code != http.StatusOK {
			t.Fatalf("engine %q: %d %s", e, code, raw)
		}
		if jr.Value == nil {
			t.Fatalf("engine %q: no value in %s", e, raw)
		}
		resolved[e], values[e], cached[e] = jr.Engine, *jr.Value, jr.Cached
	}
	for e, v := range values {
		if v != 4 {
			t.Fatalf("engine %q found cut %d, want 4", e, v)
		}
	}
	// n=60 sits under the auto rule's SmallN: both the default and "auto"
	// must resolve to the exact baseline and say so.
	if resolved[""] != "stoerwagner" || resolved["auto"] != "stoerwagner" {
		t.Fatalf(`resolved engines: ""=%q auto=%q, want stoerwagner for both`, resolved[""], resolved["auto"])
	}
	if resolved["geissmann"] != "geissmann" || resolved["andersonblelloch"] != "andersonblelloch" {
		t.Fatalf("explicit engines echoed as %q, %q", resolved["geissmann"], resolved["andersonblelloch"])
	}
	// The "" solve ran first and populated the stoerwagner entry; "auto"
	// and the explicit request must both hit it — resolution happens
	// before the cache key is built.
	if !cached["auto"] || !cached["stoerwagner"] {
		t.Fatalf("auto cached=%v, explicit stoerwagner cached=%v; want both to share the first solve's entry",
			cached["auto"], cached["stoerwagner"])
	}

	for _, e := range []string{"edmondskarp", "kargerstein"} {
		code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
			[]byte(`{"engine":"`+e+`"}`), nil)
		if code != http.StatusBadRequest {
			t.Fatalf("unknown engine %q: %d %s, want 400", e, code, raw)
		}
	}
}

// TestRetiredFieldSharesCache: parallel_phases is no longer an
// option, but old clients and older cluster peers may still send it. The
// JSON decoders ignore unknown fields, so a body carrying it is accepted
// and keys the same result-cache entry as the body without it — on the
// single solve, the graph-scoped batch, and the cross-graph batch alike.
func TestRetiredFieldSharesCache(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadCycle(t, 60)
	type outcome struct {
		Cached bool   `json:"cached"`
		Value  *int64 `json:"value"`
	}
	// Each route solves its own seed, so its first request is cold.
	for _, c := range []struct {
		path, body string
		batch      bool
	}{
		{"/v1/graphs/" + id + "/mincut", `{"engine":"andersonblelloch","seed":3%s}`, false},
		{"/v1/graphs/" + id + "/mincut:batch", `{"seeds":[4],"engine":"andersonblelloch"%s}`, true},
		{"/v1/mincut:batch", `{"items":[{"graph_id":"` + id + `","seed":5,"engine":"andersonblelloch"%s}]}`, true},
	} {
		var runs [2]outcome
		for i, extra := range []string{`,"parallel_phases":true`, ""} {
			body := fmt.Sprintf(c.body, extra)
			var batch struct {
				Results []outcome `json:"results"`
			}
			out := any(&runs[i])
			if c.batch {
				out = &batch
			}
			code, raw := ts.do(t, "POST", c.path, "application/json", []byte(body), out)
			if c.batch && len(batch.Results) == 1 {
				runs[i] = batch.Results[0]
			}
			if code != http.StatusOK || runs[i].Value == nil {
				t.Fatalf("%s %s: %d %s", c.path, body, code, raw)
			}
		}
		if runs[0].Cached || !runs[1].Cached || *runs[0].Value != *runs[1].Value {
			t.Fatalf("%s: cached %v then %v, values %d then %d; want a cold solve, then a hit on its entry",
				c.path, runs[0].Cached, runs[1].Cached, *runs[0].Value, *runs[1].Value)
		}
	}
}

// TestMinCutBatchEngine: the batch endpoint accepts the engine field and
// echoes the resolved engine in its envelope.
func TestMinCutBatchEngine(t *testing.T) {
	ts := newTestServer(t, 2)
	id := ts.uploadCycle(t, 24)
	var resp struct {
		GraphID string       `json:"graph_id"`
		Engine  string       `json:"engine"`
		Results []batchEntry `json:"results"`
	}
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut:batch", "application/json",
		[]byte(`{"seeds":[1,2],"engine":"stoerwagner"}`), &resp)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, raw)
	}
	if resp.Engine != "stoerwagner" {
		t.Fatalf("batch envelope engine = %q, want stoerwagner", resp.Engine)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("batch results = %d, want 2", len(resp.Results))
	}
	for _, r := range resp.Results {
		if r.Status != "done" || r.Value == nil || *r.Value != 4 {
			t.Fatalf("batch entry %+v, want done with value 4", r)
		}
	}
}

// TestBaselineEngineJobObservability: an async job on a promoted baseline
// engine carries its engine through the job API, logs the "contract"
// phase in its event stream, and lands in the engine-labeled completion
// metric.
func TestBaselineEngineJobObservability(t *testing.T) {
	ts := newTestServer(t, 1)
	id := ts.uploadCycle(t, 200)
	var jr jobResponse
	code, raw := ts.do(t, "POST", "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"engine":"stoerwagner","async":true}`), &jr)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", code, raw)
	}
	if jr.Engine != "stoerwagner" {
		t.Fatalf("202 engine = %q, want stoerwagner", jr.Engine)
	}
	deadline := time.Now().Add(60 * time.Second)
	var st jobResponse
	for {
		code, raw = ts.do(t, "GET", "/v1/jobs/"+jr.JobID, "", nil, &st)
		if code != http.StatusOK {
			t.Fatalf("job status: %d %s", code, raw)
		}
		if st.Engine != "stoerwagner" {
			t.Fatalf("job %s reports engine %q in state %s", jr.JobID, st.Engine, st.Status)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" || st.Status == "canceled" {
			t.Fatalf("job ended %s: %s", st.Status, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Value == nil || *st.Value != 4 {
		t.Fatalf("done job value = %v, want 4", st.Value)
	}

	// The finished event log must show the baseline engine's phase.
	code, raw = ts.do(t, "GET", "/v1/jobs/"+jr.JobID+"/events", "", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	sawContract := false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Type == "phase" && ev.Phase == "contract" {
			sawContract = true
		}
	}
	if !sawContract {
		t.Fatalf("no contract phase event in log:\n%s", raw)
	}

	// The engine-labeled completion counter has the job.
	if n := ts.metric(t, `mincutd_jobs_completed_total{class="interactive",engine="stoerwagner"}`); n != 1 {
		t.Fatalf("completed{interactive,stoerwagner} = %d, want 1", n)
	}
}
