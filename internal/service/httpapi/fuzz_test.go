package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

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
