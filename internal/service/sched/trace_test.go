package sched

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// spanNames collects the distinct span names of a trace.
func spanNames(tr *trace.Trace) map[string]int {
	out := map[string]int{}
	for _, sp := range tr.Spans {
		out[sp.Name]++
	}
	return out
}

// TestJobTracePublished: a traced solve publishes a span tree into the
// ring with the full chain — job root, queue-wait, run, packing, scan —
// and the phase spans' durations are contained in the job span's.
func TestJobTracePublished(t *testing.T) {
	ring := trace.NewRing(8)
	s := New(Config{Workers: 1, Traces: ring})
	defer shutdown(t, s)

	j, _, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 3}}, cycle(t, 32), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	tr, ok := ring.Get(j.ID())
	if !ok {
		t.Fatalf("no trace for %s in ring (len %d)", j.ID(), ring.Len())
	}
	names := spanNames(tr)
	for _, want := range []string{"job", "queue-wait", "run", "packing", "scan", "estimate", "tree-scan", "bough-phase"} {
		if names[want] == 0 {
			t.Fatalf("trace lacks %q span; have %v", want, names)
		}
	}
	if tr.RootAttr("graph") != "g1" || tr.RootAttr("class") != "interactive" || tr.RootAttr("state") != "done" {
		t.Fatalf("root attrs wrong: %+v", tr.Spans[0].Attrs)
	}
	// Phase spans must nest inside the root's duration (the acceptance
	// criterion's sum-within-slack property follows from containment).
	for _, sp := range tr.Spans {
		if sp.Duration > tr.Duration {
			t.Fatalf("span %q (%d ns) longer than trace (%d ns)", sp.Name, sp.Duration, tr.Duration)
		}
	}
}

// TestTraceHeldUntilLastWaiter: a solve that finishes before its
// submitter attaches a span (as an HTTP handler does between Submit and
// Wait) keeps its trace open until that waiter's Wait, so the late span
// is published with the trace instead of being dropped.
func TestTraceHeldUntilLastWaiter(t *testing.T) {
	ring := trace.NewRing(8)
	s := New(Config{Workers: 1, Traces: ring})
	defer shutdown(t, s)

	j, _, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 3}}, cycle(t, 8), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	rec := j.TraceSpan().Recorder()
	if !rec.Hold() {
		t.Fatal("trace published before its attached waiter called Wait")
	}
	sp := j.TraceSpan().Child("http")
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	sp.End()
	rec.Release()
	tr, ok := ring.Get(j.ID())
	if !ok {
		t.Fatal("trace not published once every hold was released")
	}
	if spanNames(tr)["http"] != 1 || tr.RootAttr("state") != "done" {
		t.Fatalf("published trace lacks the late span or the state attr: %+v", tr.Spans)
	}
}

// TestUntracedSchedulerHasNoSpans: without a ring, jobs carry no recorder
// and TraceSpan is inert.
func TestUntracedSchedulerHasNoSpans(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	j, _, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 3}}, cycle(t, 16), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if j.TraceSpan().Active() {
		t.Fatal("untraced job has an active span")
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
}

// TestSlowSolveLog: a threshold of 1ns flags every solve; the structured
// line carries the job, phase attribution, and duration.
func TestSlowSolveLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := New(Config{Workers: 1, SlowSolve: time.Nanosecond, Logger: logger})
	defer shutdown(t, s)
	j, _, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 3}}, cycle(t, 32), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "slow-solve line", func() bool {
		return strings.Contains(buf.String(), "slow solve")
	})
	line := buf.String()
	for _, want := range []string{"job=" + j.ID(), "graph=g1", "class=interactive", "packing=", "scan=", "contract=", "queue_wait="} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-solve line lacks %q: %s", want, line)
		}
	}
}

// TestPhaseHistograms: completed solves populate the {class, phase,
// engine} duration histograms under the job's engine only, and the
// queue-wait histogram.
func TestPhaseHistograms(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	j, _, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 3}}, cycle(t, 32), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	// finishPublish (which settles the phase tail) runs before done is
	// closed, so the histograms are settled once Wait returns.
	m := s.Metrics()
	cm := m.Classes[ClassInteractive.rank()]
	if cm.QueueWait.Count == 0 {
		t.Fatalf("queue-wait histogram empty: %+v", cm.QueueWait)
	}
	if len(cm.PhaseDurationsByEngine) != len(phaseNames)*len(m.Engines) {
		t.Fatalf("phase histograms = %+v", cm.PhaseDurationsByEngine)
	}
	for _, ph := range cm.PhaseDurationsByEngine {
		// The default engine packs and scans but never contracts, and no
		// other engine ran.
		wantObserved := ph.Engine == engine.Default && ph.Phase != "contract"
		if (ph.Hist.Count > 0) != wantObserved {
			t.Fatalf("phase %q engine %q histogram count %d, want observed=%v",
				ph.Phase, ph.Engine, ph.Hist.Count, wantObserved)
		}
		// The cumulative buckets must be monotone and end at Count.
		last := int64(0)
		for _, b := range ph.Hist.Buckets {
			if b.Count < last {
				t.Fatalf("phase %q buckets not cumulative: %+v", ph.Phase, ph.Hist.Buckets)
			}
			last = b.Count
		}
		if last > ph.Hist.Count {
			t.Fatalf("phase %q bucket count exceeds total: %+v", ph.Phase, ph.Hist)
		}
	}
}
