// Package trace is the solver's span tracer: a zero-dependency,
// allocation-light recorder of span trees that attributes one solve's wall
// clock to the places it was spent — HTTP request handling, scheduler
// queue wait, the solver's packing and scan phases, individual bough
// batches, and coarse fork-join regions of the executor pool.
//
// The design mirrors internal/progress: instrumentation is write-only for
// the solver (a recorder never feeds anything back into the computation,
// so attaching one cannot change a Result at any pool width), and the
// disabled path is free — the zero SpanRef is valid everywhere a span is
// accepted, and every operation on it is a nil check with no allocations,
// so library callers who do not trace pay nothing on the hot path (see
// BenchmarkSpanDisabled).
//
// A Recorder collects the spans of one trace (one job). Spans form a tree
// through parent indices; they may start and end concurrently from any
// goroutine. Completion is reference-counted: every party that appends
// spans after creation (an HTTP handler attaching a request span to a
// job's trace) takes a Hold and Releases it when done, and the trace is
// published to its sink exactly once, when the last hold is released.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings; use
// SpanRef.AttrInt for integers (it formats only when a recorder is
// attached, so disabled call sites never pay for the conversion).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a trace. Parent is the index of the
// enclosing span in the trace's Spans slice, -1 for a root.
type Span struct {
	ID       int32     `json:"id"`
	Parent   int32     `json:"parent"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"duration_ns"`
	Attrs    []Attr    `json:"attrs,omitempty"`
}

// Trace is a finished span tree. Spans appear in start order; span 0 is
// the root. Dropped counts spans discarded past the recorder's cap.
type Trace struct {
	ID       string    `json:"id"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"duration_ns"`
	Spans    []Span    `json:"spans"`
	Dropped  int       `json:"dropped_spans,omitempty"`
}

// RootAttr returns the value of the named attribute on the root span, or
// "" if absent. List filters use it (graph ID, class) without the trace
// format having to know the service's vocabulary.
func (t *Trace) RootAttr(key string) string {
	if len(t.Spans) == 0 {
		return ""
	}
	for _, a := range t.Spans[0].Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// DefaultMaxSpans bounds a trace's span count when NewRecorder is given 0:
// enough for every packing round and bough batch of a large solve, small
// enough that a pathological one (a million boost runs) cannot hold the
// process hostage.
const DefaultMaxSpans = 4096

// Recorder accumulates one trace. Create with NewRecorder, append spans
// via SpanRef.Child (or Start for roots), and Release the creator's hold
// when the traced work is done. All methods are safe for concurrent use
// and all are valid on a nil *Recorder (recording nothing).
type Recorder struct {
	id       string
	maxSpans int
	onFinish func(*Trace)

	holds    atomic.Int32
	finished atomic.Bool

	mu      sync.Mutex
	start   time.Time
	spans   []Span
	dropped int
}

// NewRecorder starts a trace with the given ID. maxSpans caps the spans
// retained (0 means DefaultMaxSpans; spans past the cap are counted in
// Trace.Dropped). onFinish, if non-nil, receives the finished trace when
// the last hold is released; it runs on whichever goroutine released
// last. The recorder starts with one hold, owned by the creator.
func NewRecorder(id string, maxSpans int, onFinish func(*Trace)) *Recorder {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	r := &Recorder{id: id, maxSpans: maxSpans, onFinish: onFinish}
	r.holds.Store(1)
	return r
}

// Hold registers an additional party appending spans to the trace. It
// reports false — and registers nothing — on a nil or already-finished
// recorder; callers must skip their span work when it fails, because the
// trace has already been published.
func (r *Recorder) Hold() bool {
	if r == nil {
		return false
	}
	for {
		h := r.holds.Load()
		if h <= 0 {
			return false
		}
		if r.holds.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// Release drops one hold. The trace is finished and handed to onFinish
// when the last hold is released: open spans are closed at the finish
// instant and the trace duration is the root span's. The published Trace
// takes over the spans, so the recorder keeps none once it is finished.
// Safe on nil.
func (r *Recorder) Release() {
	if r == nil {
		return
	}
	if r.holds.Add(-1) != 0 {
		return
	}
	if !r.finished.CompareAndSwap(false, true) {
		return
	}
	now := time.Now()
	r.mu.Lock()
	for i := range r.spans {
		if r.spans[i].Duration < 0 {
			r.spans[i].Duration = now.Sub(r.spans[i].Start).Nanoseconds()
		}
	}
	t := &Trace{ID: r.id, Start: r.start, Spans: r.spans, Dropped: r.dropped}
	r.spans = nil
	if len(t.Spans) > 0 {
		t.Duration = t.Spans[0].Duration
	}
	r.mu.Unlock()
	if r.onFinish != nil {
		r.onFinish(t)
	}
}

// Start begins a root-level span (parent -1). Most spans should be
// children of an existing span; traces normally have exactly one root.
func (r *Recorder) Start(name string) SpanRef {
	return r.startSpan(-1, name)
}

func (r *Recorder) startSpan(parent int32, name string) SpanRef {
	if r == nil || r.finished.Load() {
		return SpanRef{}
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	// finished is checked again under mu: a Release that won the race
	// since the check above has published the spans already.
	if r.finished.Load() {
		return SpanRef{}
	}
	if len(r.spans) >= r.maxSpans {
		r.dropped++
		return SpanRef{}
	}
	if len(r.spans) == 0 {
		r.start = now
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: now, Duration: -1})
	return SpanRef{r: r, idx: id}
}

// SpanRef is a cheap handle on one span of a recorder: a value type safe
// to copy and pass through solver layers. The zero SpanRef is valid and
// means "tracing disabled" — every method on it is a no-op costing one
// branch and zero allocations.
type SpanRef struct {
	r   *Recorder
	idx int32
}

// Active reports whether the ref records anything. Call sites that build
// per-span closures (fork observers) gate on it so the disabled path
// allocates nothing.
func (s SpanRef) Active() bool { return s.r != nil }

// Recorder returns the owning recorder (nil for the zero ref), for
// Hold/Release by parties attaching spans across goroutine boundaries.
func (s SpanRef) Recorder() *Recorder { return s.r }

// Child starts a span nested under s. On the zero ref it returns the zero
// ref, so whole subtrees of an untraced call are free.
func (s SpanRef) Child(name string) SpanRef {
	if s.r == nil {
		return SpanRef{}
	}
	return s.r.startSpan(s.idx, name)
}

// End closes the span at the current instant. Ending a span twice keeps
// the first end; spans never ended are closed when the trace finishes.
func (s SpanRef) End() {
	if s.r == nil || s.r.finished.Load() {
		return
	}
	now := time.Now()
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.finished.Load() {
		return // published meanwhile; Release closed the span
	}
	sp := &s.r.spans[s.idx]
	if sp.Duration < 0 {
		sp.Duration = now.Sub(sp.Start).Nanoseconds()
	}
}

// Attr annotates the span. It returns s so annotations chain.
func (s SpanRef) Attr(key, value string) SpanRef {
	if s.r == nil || s.r.finished.Load() {
		return s
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.r.finished.Load() {
		return s // published meanwhile
	}
	sp := &s.r.spans[s.idx]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	return s
}

// AttrInt annotates the span with an integer, formatting it only when a
// recorder is attached.
func (s SpanRef) AttrInt(key string, v int64) SpanRef {
	if s.r == nil {
		return s
	}
	return s.Attr(key, strconv.FormatInt(v, 10))
}
