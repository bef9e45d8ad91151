package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
)

// FuzzUploadJSON sends each input, as it is, to the two JSON upload
// routes of an in-process, memory-only server, and never solves what it
// uploads:
//
//   - POST /v1/graphs with Content-Type application/json answers 200, 201,
//     400 or 413, never a 5xx or a panic. It answers 2xx exactly when the
//     body is one JSON value, followed by nothing but whitespace, that
//     decodes as {"n", "edges"}, every edge is valid and the graph fits the
//     registry's budget: n within [0, 2^30], endpoints in range,
//     weights positive and summing to at most graph.MaxTotalWeight, and
//     8 bytes per vertex plus 16 per edge within mincutd's default 1 GiB.
//     A 2xx reply's n, m and bytes match GET /v1/graphs/{id}, and
//     uploading the body again answers 200 with "existed".
//   - POST /v1/graphs:batch answers 200, 400 or 413. A 200 reply is to a
//     body that is one JSON value, and has one entry per item, in order,
//     each "created", "existed" or "failed".
//
// Run it beyond its seeds with
//
//	go test ./internal/service/httpapi -run '^$' -fuzz FuzzUploadJSON -fuzztime 60s
func FuzzUploadJSON(f *testing.F) {
	for _, seed := range []string{
		`{"n": 3, "edges": [[0,1,1],[1,2,2],[2,0,3]]}`,           // valid triangle
		`{"n": 2, "edges": [[0,1,0]]}`,                           // zero weight
		`{"n": 2, "edges": [[0,0,5],[0,1,1]]}`,                   // self-loop
		`{"n": 2, "edges": [[0,2,1]]}`,                           // endpoint out of range
		`{"n": -1, "edges": []}`,                                 // negative n
		`{"n": 1073741825, "edges": []}`,                         // n = 2^30+1
		`{"n": 2, "edges": [[0,1,1099511627776],[0,1,1]]}`,       // total 2^40+1
		`{"n": 2, "edges": [[0,1,1],[1,0,9223372036854775807]]}`, // total wraps int64
		`{"n": 3, "edges": [[0,1,1],[1,2`,                        // truncated
		`{"n": 3, "edges": null}`,                                // null edges
		`{"graphs": [{"text": "p cut 3 2\ne 0 1 5\ne 1 2 7\n"}, {"n": 2, "edges": [[0,1,4]]},
			{"n": 2, "edges": [[0,1,4]], "text": "p cut 2 1\ne 0 1 4\n"}]}`, // text, JSON, and both
		`{"n": 1073741824, "edges": []}`,                      // n = 2^30: 8 GiB of vertices, over the budget
		`{"n": 2, "edges": [[0,1,4]]} x`,                      // trailing bytes
		"{\"graphs\": [{\"n\": 2, \"edges\": [[0,1,4]]}]} \n", // trailing whitespace
	} {
		f.Add([]byte(seed))
	}
	sch := sched.New(sched.Config{Workers: 1})
	f.Cleanup(func() { _ = sch.Shutdown(context.Background()) })
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := New(registry.New(fuzzBudget, nil), sch, nil, Options{Logger: quiet}).Handler()
		send := func(method, path string, body []byte) (int, []byte) {
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code, rec.Body.Bytes()
		}

		code, raw := send("POST", "/v1/graphs", body)
		valid := validJSONGraph(body)
		switch {
		case code != http.StatusOK && code != http.StatusCreated && code != http.StatusBadRequest &&
			code != http.StatusRequestEntityTooLarge:
			t.Fatalf("upload %q: %d %s", body, code, raw)
		case valid != (code == http.StatusCreated):
			t.Fatalf("upload %q of a graph valid=%v: %d %s", body, valid, code, raw)
		}
		if code == http.StatusCreated {
			var up, info graphResponse
			if err := json.Unmarshal(raw, &up); err != nil {
				t.Fatalf("upload reply %s: %v", raw, err)
			}
			if c, r := send("GET", "/v1/graphs/"+up.ID, nil); c != http.StatusOK || json.Unmarshal(r, &info) != nil ||
				info.N != up.N || info.M != up.M || info.Bytes != up.Bytes {
				t.Fatalf("upload %q answered %s, but GET answers %d %s", body, raw, c, r)
			}
			var again graphResponse
			if c, r := send("POST", "/v1/graphs", body); c != http.StatusOK || json.Unmarshal(r, &again) != nil ||
				!again.Existed || again.ID != up.ID {
				t.Fatalf("re-upload of %q: %d %s, want 200 existed %s", body, c, r, up.ID)
			}
		}

		code, raw = send("POST", "/v1/graphs:batch", body)
		if code != http.StatusOK && code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("batch upload %q: %d %s", body, code, raw)
		}
		if code != http.StatusOK {
			return
		}
		var req batchUploadRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("batch upload %q answered 200 but does not decode: %v", body, err)
		}
		var out struct {
			Results []batchUploadEntry `json:"results"`
		}
		if err := json.Unmarshal(raw, &out); err != nil || len(out.Results) != len(req.Graphs) {
			t.Fatalf("batch upload of %d items: %s (%v)", len(req.Graphs), raw, err)
		}
		for i, e := range out.Results {
			if e.Index != i || (e.Status != "created" && e.Status != "existed" && e.Status != "failed") {
				t.Fatalf("batch entry %d: %+v", i, e)
			}
		}
	})
}

// fuzzBudget is FuzzUploadJSON's registry budget, mincutd's default.
const fuzzBudget = 1 << 30

// validJSONGraph reports whether body holds a graph the JSON upload form
// must accept into a registry of fuzzBudget bytes, checked apart from the
// server's own validation; json.Unmarshal, unlike a json.Decoder, rejects
// anything but whitespace after the value.
func validJSONGraph(body []byte) bool {
	var jg struct {
		N     int        `json:"n"`
		Edges [][3]int64 `json:"edges"`
	}
	if json.Unmarshal(body, &jg) != nil || jg.N < 0 || jg.N > 1<<30 ||
		8*int64(jg.N)+16*int64(len(jg.Edges)) > fuzzBudget {
		return false
	}
	var total int64
	for _, e := range jg.Edges {
		if e[0] < 0 || e[0] >= int64(jg.N) || e[1] < 0 || e[1] >= int64(jg.N) ||
			e[2] <= 0 || e[2] > graph.MaxTotalWeight-total {
			return false
		}
		total += e[2]
	}
	return true
}

// FuzzSolveJSON sends each input, as it is, to the three solve routes of
// an in-process, memory-only server that holds one triangle. No body
// answers a 5xx, and every body answers what solveWant owes it: a 413 past
// the 1 MiB cap, a 400 unless it is one JSON value that decodes into the
// route's request type and passes validation (on the single route, an
// empty body too), and an acceptance otherwise. Each request goes out
// with its context already canceled, so no solve outlives its request
// whatever boost the body names: an accepted body answers 200, 202 (an
// async job, which is then canceled) or, on the single route, 499, the
// status of a client gone before its result.
//
// Run it beyond its seeds with
//
//	go test ./internal/service/httpapi -run '^$' -fuzz FuzzSolveJSON -fuzztime 60s
func FuzzSolveJSON(f *testing.F) {
	sch := sched.New(sched.Config{Workers: 1})
	f.Cleanup(func() { _ = sch.Shutdown(context.Background()) })
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := New(registry.New(fuzzBudget, nil), sch, nil, Options{Logger: quiet}).Handler()
	send := func(ctx context.Context, method, path string, body []byte) (int, []byte) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	var gr graphResponse
	if code, raw := send(context.Background(), "POST", "/v1/graphs", []byte(solveTriangle)); code != http.StatusCreated ||
		json.Unmarshal(raw, &gr) != nil {
		f.Fatalf("upload: %d %s", code, raw)
	}
	for _, rt := range solveRoutes {
		_, bodies := rt.bodies(gr.ID)
		for _, b := range bodies {
			f.Add([]byte(b.body))
		}
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		for route, rt := range solveRoutes {
			path := strings.ReplaceAll(rt.path, "{id}", gr.ID)
			code, raw := send(gone, "POST", path, body)
			accepted := code == http.StatusOK || route == 0 && (code == http.StatusAccepted || code == 499)
			if want := solveWant(route, body); want == 0 && !accepted || want != 0 && code != want {
				t.Fatalf("%s %q: %d %s, want %d (0: accepted)", rt.path, body, code, raw, want)
			}
			var jr jobResponse
			if code == http.StatusAccepted && json.Unmarshal(raw, &jr) == nil {
				send(context.Background(), "DELETE", "/v1/jobs/"+jr.JobID, nil)
			}
		}
	})
}

// solveWant is FuzzSolveJSON's oracle, checked apart from the server's
// own validation: the status solveRoutes[route] owes body, or 0 for an
// acceptance. A body past maxSolveBytes is a 413. A body is accepted when
// it is one JSON value (json.Unmarshal, unlike a json.Decoder, rejects
// anything but whitespace after it) that decodes into the route's request
// type, with every boost non-negative, timeout_ms in [0, 2^63/10^6) and
// class empty or a QoS class; the graph routes also need an engine name
// that is empty, "auto" or served, and the batch routes from 1 to 1024
// items, each cross-graph item naming a graph. On the single route an
// empty body is accepted as the defaults. Anything else is a 400.
func solveWant(route int, body []byte) int {
	if len(body) > maxSolveBytes {
		return http.StatusRequestEntityTooLarge
	}
	timeoutOK := func(ms int64) bool { return ms >= 0 && ms <= math.MaxInt64/int64(time.Millisecond) }
	classOK := func(c string) bool { return c == "" || c == "interactive" || c == "batch" || c == "background" }
	engineOK := func(e string) bool { return e == "" || e == engine.Auto || slices.Contains(engine.Names(), e) }
	countOK := func(n int) bool { return n >= 1 && n <= 1024 }
	ok := false
	switch route {
	case 0:
		var req mincutRequest
		ok = len(body) == 0 || json.Unmarshal(body, &req) == nil &&
			req.Boost >= 0 && timeoutOK(req.TimeoutMs) && classOK(req.Class) && engineOK(req.Engine)
	case 1:
		var req batchRequest
		ok = json.Unmarshal(body, &req) == nil && req.Boost >= 0 && timeoutOK(req.TimeoutMs) &&
			classOK(req.Class) && engineOK(req.Engine) && countOK(len(req.Seeds)+len(req.Items))
		for _, it := range req.Items {
			ok = ok && it.Boost >= 0
		}
	case 2:
		var req clusterBatchRequest
		ok = json.Unmarshal(body, &req) == nil && timeoutOK(req.TimeoutMs) && classOK(req.Class) && countOK(len(req.Items))
		for _, it := range req.Items {
			ok = ok && it.GraphID != "" && it.Boost >= 0
		}
	}
	if ok {
		return 0
	}
	return http.StatusBadRequest
}
