package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service/sched"
)

// ctxKey keys httpapi's context values.
type ctxKey int

const requestIDKey ctxKey = iota

// requestID returns the request's correlation ID, assigned (or accepted
// from the client's X-Request-Id header) by the server middleware; "" if
// the context did not pass through it.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter captures the response code for the access log and the
// request-duration histogram. It forwards Flush so the streaming handlers
// (batch solves, job events) keep flushing through the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps the route table with the cross-cutting request
// concerns: a correlation ID (accepted from X-Request-Id or minted),
// echoed back in the response and stored in the context for handlers to
// attach to job traces; a structured access-log line per request; and the
// per-route/per-code latency histogram.
func (s *Server) middleware(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", rid)
		if s.cluster != nil {
			// Stamp which node handled this; a proxied response overwrites
			// it with the owner's stamp, so clients see who really served.
			w.Header().Set(cluster.NodeHeader, s.cluster.Self())
		}
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, rid))
		// Resolve the route pattern up front: ServeMux hands handlers a
		// shallow copy of the request, so a pattern set during dispatch
		// would be invisible out here.
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		d := time.Since(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.httpm.observe(route, code, d)
		s.log.Info("http request",
			"request_id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"code", code,
			"duration", d,
		)
	})
}

// httpMetrics holds one request-duration histogram per (route, code). A
// plain mutex suffices: the rate here is bounded by HTTP handling, not
// the solver hot path.
type httpMetrics struct {
	mu     sync.Mutex
	series map[httpKey]*sched.Histogram
}

// httpKey labels one request-duration histogram.
type httpKey struct {
	route string
	code  int
}

// httpSeries is one request-duration histogram as /metrics renders it.
type httpSeries struct {
	httpKey
	hist sched.HistogramSnapshot
}

func (h *httpMetrics) observe(route string, code int, d time.Duration) {
	key := httpKey{route, code}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.series == nil {
		h.series = make(map[httpKey]*sched.Histogram)
	}
	hist := h.series[key]
	if hist == nil {
		hist = new(sched.Histogram)
		h.series[key] = hist
	}
	hist.Observe(d)
}

// snapshot returns the series sorted by route then code, so /metrics
// renders deterministically.
func (h *httpMetrics) snapshot() []httpSeries {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]httpSeries, 0, len(h.series))
	for k, hist := range h.series {
		out = append(out, httpSeries{k, hist.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].route != out[j].route {
			return out[i].route < out[j].route
		}
		return out[i].code < out[j].code
	})
	return out
}
