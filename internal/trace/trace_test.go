package trace

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestRecorderSpanTree(t *testing.T) {
	var got *Trace
	r := NewRecorder("t-1", 0, func(tr *Trace) { got = tr })
	root := r.Start("job")
	root.Attr("graph", "sha256:abc").AttrInt("seed", 42)
	q := root.Child("queue-wait")
	q.End()
	run := root.Child("run")
	pack := run.Child("packing")
	pack.AttrInt("rounds", 24)
	pack.End()
	run.End()
	root.End()
	r.Release()

	if got == nil {
		t.Fatal("onFinish never ran")
	}
	if got.ID != "t-1" {
		t.Fatalf("trace id = %q", got.ID)
	}
	if len(got.Spans) != 4 {
		t.Fatalf("span count = %d, want 4", len(got.Spans))
	}
	wantParents := map[string]string{"job": "", "queue-wait": "job", "run": "job", "packing": "run"}
	byID := map[int32]Span{}
	for _, sp := range got.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range got.Spans {
		wantParent := wantParents[sp.Name]
		if wantParent == "" {
			if sp.Parent != -1 {
				t.Fatalf("span %q parent = %d, want -1", sp.Name, sp.Parent)
			}
			continue
		}
		if byID[sp.Parent].Name != wantParent {
			t.Fatalf("span %q parent = %q, want %q", sp.Name, byID[sp.Parent].Name, wantParent)
		}
		if sp.Duration < 0 {
			t.Fatalf("span %q left open (duration %d)", sp.Name, sp.Duration)
		}
	}
	if got.RootAttr("graph") != "sha256:abc" || got.RootAttr("seed") != "42" {
		t.Fatalf("root attrs = %+v", got.Spans[0].Attrs)
	}
	if got.RootAttr("missing") != "" {
		t.Fatal("missing attr should be empty")
	}
	if got.Duration != got.Spans[0].Duration {
		t.Fatalf("trace duration %d != root span duration %d", got.Duration, got.Spans[0].Duration)
	}
}

func TestRecorderOpenSpansClosedAtFinish(t *testing.T) {
	var got *Trace
	r := NewRecorder("t-2", 0, func(tr *Trace) { got = tr })
	root := r.Start("job")
	_ = root.Child("never-ended")
	r.Release()
	for _, sp := range got.Spans {
		if sp.Duration < 0 {
			t.Fatalf("span %q still open after finish", sp.Name)
		}
	}
}

func TestRecorderHoldsGatePublish(t *testing.T) {
	finished := 0
	r := NewRecorder("t-3", 0, func(*Trace) { finished++ })
	root := r.Start("job")
	if !r.Hold() {
		t.Fatal("Hold on live recorder failed")
	}
	root.End()
	r.Release() // creator's hold: one remains
	if finished != 0 {
		t.Fatal("published before last hold released")
	}
	r.Release()
	if finished != 1 {
		t.Fatalf("published %d times, want 1", finished)
	}
	if r.Hold() {
		t.Fatal("Hold on finished recorder succeeded")
	}
	// Span operations after finish are no-ops, not corruption.
	sp := root.Child("late")
	sp.Attr("k", "v")
	sp.End()
	if finished != 1 {
		t.Fatalf("late span ops re-published: %d", finished)
	}
}

// cloneTrace deep-copies tr, so a later write into its spans shows as a
// difference.
func cloneTrace(tr *Trace) *Trace {
	c := *tr
	c.Spans = make([]Span, len(tr.Spans))
	for i, sp := range tr.Spans {
		sp.Attrs = append([]Attr(nil), sp.Attrs...)
		c.Spans[i] = sp
	}
	return &c
}

// TestReleaseHandsSpansToTrace: once the last hold is released the
// published Trace owns the spans and the recorder keeps none, so a
// finished job that still references its recorder pins no spans; span
// operations on old refs leave the published Trace as it was.
func TestReleaseHandsSpansToTrace(t *testing.T) {
	var got, snap *Trace
	r := NewRecorder("t-6", 0, func(tr *Trace) { got, snap = tr, cloneTrace(tr) })
	root := r.Start("job")
	run := root.Child("run")
	run.Attr("engine", "x")
	r.Release()
	r.mu.Lock()
	held := len(r.spans)
	r.mu.Unlock()
	if held != 0 {
		t.Fatalf("recorder holds %d spans after publishing", held)
	}
	run.End()
	run.Attr("late", "v")
	root.Child("late").End()
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("published trace changed after Release:\n got %+v\nwant %+v", got, snap)
	}
}

// TestSpanOpsRacingReleaseLeaveTraceUnchanged: End and Attr calls that
// lose the race with the last Release must not write into the published
// Trace. Run with -race.
func TestSpanOpsRacingReleaseLeaveTraceUnchanged(t *testing.T) {
	for round := 0; round < 200; round++ {
		var got, snap *Trace
		r := NewRecorder("t-7", 0, func(tr *Trace) { got, snap = tr, cloneTrace(tr) })
		root := r.Start("job")
		spans := make([]SpanRef, 8)
		for i := range spans {
			spans[i] = root.Child("work")
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, sp := range spans {
			wg.Add(1)
			go func(sp SpanRef) {
				defer wg.Done()
				<-start
				for k := 0; k < 20; k++ {
					sp.Attr("k", "v")
					sp.Child("c")
				}
				sp.End()
			}(sp)
		}
		close(start)
		r.Release()
		wg.Wait()
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("round %d: a span op after Release changed the published trace", round)
		}
	}
}

func TestRecorderSpanCap(t *testing.T) {
	var got *Trace
	r := NewRecorder("t-4", 4, func(tr *Trace) { got = tr })
	root := r.Start("job")
	for i := 0; i < 10; i++ {
		c := root.Child("s")
		c.End()
	}
	r.Release()
	if len(got.Spans) != 4 {
		t.Fatalf("retained %d spans, want cap 4", len(got.Spans))
	}
	if got.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", got.Dropped)
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	var got *Trace
	r := NewRecorder("t-5", 0, func(tr *Trace) { got = tr })
	root := r.Start("job")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				sp := root.Child("work")
				sp.AttrInt("lane", int64(i))
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	r.Release()
	if len(got.Spans) != 1+8*50 {
		t.Fatalf("span count = %d, want %d", len(got.Spans), 1+8*50)
	}
}

func TestZeroSpanRefIsInert(t *testing.T) {
	var sp SpanRef
	if sp.Active() {
		t.Fatal("zero SpanRef claims active")
	}
	if sp.Recorder() != nil {
		t.Fatal("zero SpanRef has a recorder")
	}
	c := sp.Child("x")
	c.Attr("k", "v").AttrInt("n", 1)
	c.End()
	if c.Active() {
		t.Fatal("child of zero SpanRef is active")
	}
	var r *Recorder
	if r.Hold() {
		t.Fatal("nil recorder Hold succeeded")
	}
	r.Release() // must not panic
	if got := r.Start("x"); got.Active() {
		t.Fatal("nil recorder produced a live span")
	}
}

// TestDisabledPathAllocates0 is the acceptance guard in test form: the
// whole span API on the zero SpanRef must not allocate, so an untraced
// solve pays nothing per would-be span.
func TestDisabledPathAllocates0(t *testing.T) {
	var sp SpanRef
	allocs := testing.AllocsPerRun(1000, func() {
		c := sp.Child("packing")
		c.AttrInt("rounds", 24)
		c.Attr("phase", "packing")
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per span, want 0", allocs)
	}
}

func TestRingEvictionAndLookup(t *testing.T) {
	ring := NewRing(3)
	mk := func(id string, d time.Duration, graph string) *Trace {
		return &Trace{ID: id, Duration: d.Nanoseconds(), Spans: []Span{
			{ID: 0, Parent: -1, Name: "job", Attrs: []Attr{{Key: "graph", Value: graph}}},
		}}
	}
	ring.Add(mk("a", time.Millisecond, "g1"))
	ring.Add(mk("b", time.Second, "g1"))
	ring.Add(mk("c", time.Minute, "g2"))
	ring.Add(mk("d", time.Hour, "g2")) // evicts a
	if _, ok := ring.Get("a"); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if tr, ok := ring.Get("c"); !ok || tr.ID != "c" {
		t.Fatal("retained trace not retrievable")
	}
	if ring.Len() != 3 || ring.Total() != 4 {
		t.Fatalf("len=%d total=%d", ring.Len(), ring.Total())
	}

	all := ring.List(Filter{})
	if len(all) != 3 || all[0].ID != "d" || all[2].ID != "b" {
		t.Fatalf("List order = %v", ids(all))
	}
	g2 := ring.List(Filter{Graph: "g2"})
	if len(g2) != 2 {
		t.Fatalf("graph filter returned %v", ids(g2))
	}
	slow := ring.List(Filter{MinDuration: time.Minute})
	if len(slow) != 2 || slow[0].ID != "d" || slow[1].ID != "c" {
		t.Fatalf("min-duration filter returned %v", ids(slow))
	}
	limited := ring.List(Filter{Limit: 1})
	if len(limited) != 1 || limited[0].ID != "d" {
		t.Fatalf("limit filter returned %v", ids(limited))
	}
}

func TestNilRingIsInert(t *testing.T) {
	var ring *Ring
	ring.Add(&Trace{ID: "x"})
	if _, ok := ring.Get("x"); ok {
		t.Fatal("nil ring retained a trace")
	}
	if ring.List(Filter{}) != nil || ring.Len() != 0 || ring.Total() != 0 {
		t.Fatal("nil ring not empty")
	}
}

func ids(ts []*Trace) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}
