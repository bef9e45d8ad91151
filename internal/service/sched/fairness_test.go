package sched

import (
	"context"
	"errors"
	"testing"

	parcut "repro"
	"repro/internal/engine"
)

// bgGraph returns a per-seed distinct graph heavy enough (a few ms per
// solve) that a stream of them keeps the queue deep on a 4-worker pool.
func bgGraph(seed int64) *parcut.Graph { return parcut.RandomGraph(120, 480, 50, seed) }

// totalDispatched sums the per-class dispatch counts: each class's
// queue-wait histogram observes one wait per dispatch.
func totalDispatched(m Metrics) int64 {
	var n int64
	for _, c := range m.Classes {
		n += c.QueueWait.Count
	}
	return n
}

func classMetrics(m Metrics, class Class) ClassMetrics { return m.Classes[classRank(class)] }

// TestBackgroundSaturationDoesNotStarveInteractive is the fairness
// acceptance test: with a 4-worker scheduler saturated by background
// jobs, an interactive job submitted mid-flood must be dispatched within
// a bounded number of dispatches — the DRR bound is the other classes'
// remaining quanta (weight sum 4+1 with the default weights), far below
// the ~40 a FIFO would cost.
func TestBackgroundSaturationDoesNotStarveInteractive(t *testing.T) {
	s := New(Config{Workers: 4})
	defer shutdown(t, s)
	for i := 0; i < 40; i++ {
		if _, _, err := s.Submit(Key{GraphID: "bg", Opt: SolveOptions{Seed: int64(i)}},
			bgGraph(int64(i)), SubmitOpts{Class: ClassBackground, Detached: true}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "background flood running", func() bool { return s.Metrics().Running >= 4 })

	before := totalDispatched(s.Metrics())
	j, _, err := s.Submit(Key{GraphID: "vip", Opt: SolveOptions{Seed: 1}}, cycle(t, 12), SubmitOpts{Class: ClassInteractive})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Job(j.ID())
	if !ok || st.DispatchSeq == 0 {
		t.Fatalf("interactive job has no dispatch record: %+v", st)
	}
	// Dispatches that jumped ahead of the interactive job after it was
	// submitted: bounded by the batch+background quanta (4+1), plus
	// generous slack for the dispatches that raced the Submit itself.
	ahead := int64(st.DispatchSeq) - before - 1
	if ahead > 10 {
		t.Fatalf("%d background dispatches jumped ahead of the interactive job, want <= 10 (starvation)", ahead)
	}
	if d := s.Metrics().QueueDepth; d == 0 {
		t.Fatal("background queue drained before the interactive job finished; the test never exercised contention")
	}
}

// TestWeightsShiftDispatchShares pins the DRR interleaving: with a single
// worker and both queues preloaded behind a blocker, the dispatch order
// is deterministic, and the batch:background share among the first
// dispatches must track the configured weights.
func TestWeightsShiftDispatchShares(t *testing.T) {
	share := func(weights map[Class]int) (batch, background int) {
		t.Helper()
		s := New(Config{Workers: 1, ClassWeights: weights})
		defer shutdown(t, s)
		unblock := block(t, s)
		defer unblock()
		var batchJobs, bgJobs []*Job
		for i := 0; i < 30; i++ {
			jb, _, err := s.Submit(Key{GraphID: "b", Opt: SolveOptions{Seed: int64(i)}},
				cycle(t, 8), SubmitOpts{Class: ClassBatch, Detached: true})
			if err != nil {
				t.Fatal(err)
			}
			jg, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: int64(i)}},
				cycle(t, 8), SubmitOpts{Class: ClassBackground, Detached: true})
			if err != nil {
				t.Fatal(err)
			}
			batchJobs, bgJobs = append(batchJobs, jb), append(bgJobs, jg)
		}
		unblock()
		for _, j := range append(append([]*Job{}, batchJobs...), bgJobs...) {
			<-j.Done()
		}
		// Count each class among the first 20 dispatches after the blocker.
		const window = 20
		count := func(jobs []*Job) int {
			n := 0
			for _, j := range jobs {
				st, _ := s.Job(j.ID())
				if st.DispatchSeq >= 2 && st.DispatchSeq < 2+window {
					n++
				}
			}
			return n
		}
		return count(batchJobs), count(bgJobs)
	}

	// Default-ish 4:1 → 16 batch vs 4 background per 20 (± cursor phase).
	b, g := share(map[Class]int{ClassBatch: 4, ClassBackground: 1})
	if b < 13 || g > 7 {
		t.Fatalf("weights 4:1 dispatched %d batch / %d background in the window, want ~16/4", b, g)
	}
	// Equal weights → even split.
	b, g = share(map[Class]int{ClassBatch: 1, ClassBackground: 1})
	if b < 7 || b > 13 || g < 7 || g > 13 {
		t.Fatalf("weights 1:1 dispatched %d batch / %d background in the window, want ~10/10", b, g)
	}
}

// TestClassQueueCapRejects: the per-class admission cap turns the
// submitting class away with ErrClassQueueFull while other classes (and
// joins of existing jobs) still get in.
func TestClassQueueCapRejects(t *testing.T) {
	s := New(Config{Workers: 1, ClassQueueCaps: map[Class]int{ClassBackground: 2}})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit(Key{GraphID: "bg", Opt: SolveOptions{Seed: int64(i)}},
			cycle(t, 8), SubmitOpts{Class: ClassBackground, Detached: true}); err != nil {
			t.Fatalf("submit %d under cap: %v", i, err)
		}
	}
	_, _, err := s.Submit(Key{GraphID: "bg", Opt: SolveOptions{Seed: 9}}, cycle(t, 8),
		SubmitOpts{Class: ClassBackground, Detached: true})
	if !errors.Is(err, ErrClassQueueFull) {
		t.Fatalf("over-cap submit = %v, want ErrClassQueueFull", err)
	}
	// Joining an existing background job is not new queue load.
	if _, hit, err := s.Submit(Key{GraphID: "bg", Opt: SolveOptions{Seed: 0}}, cycle(t, 8),
		SubmitOpts{Class: ClassBackground, Detached: true}); err != nil || !hit {
		t.Fatalf("join under cap: hit=%v err=%v", hit, err)
	}
	// Another class is unaffected.
	if _, _, err := s.Submit(Key{GraphID: "i", Opt: SolveOptions{Seed: 1}}, cycle(t, 8),
		SubmitOpts{Detached: true}); err != nil {
		t.Fatalf("interactive submit with background capped: %v", err)
	}
	m := s.Metrics()
	if m.RejectedClassCap != 1 || m.Rejected != 1 {
		t.Fatalf("rejections = %+v, want 1 class_cap", m)
	}
}

// TestGlobalQueueCapRejects: the cross-class bound rejects with
// ErrQueueFull once the total queue is full.
func TestGlobalQueueCapRejects(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 2})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: int64(i)}},
			cycle(t, 8), SubmitOpts{Class: ClassBatch, Detached: true}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 9}}, cycle(t, 8), SubmitOpts{Detached: true})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit = %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m.RejectedQueueFull != 1 {
		t.Fatalf("RejectedQueueFull = %d, want 1", m.RejectedQueueFull)
	}
}

// TestBoostedJobQueuesAsOneJob: a queued background Boost=4 request takes
// one slot of its class's queue, an interactive job submitted after it
// still dispatches first, and all four runs happen inside that one job.
func TestBoostedJobQueuesAsOneJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	boosted, _, err := s.Submit(Key{GraphID: "boost", Opt: SolveOptions{Seed: 3, Boost: 4}},
		cycle(t, 16), SubmitOpts{Class: ClassBackground, Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := classMetrics(s.Metrics(), ClassBackground).QueueDepth; d != 1 {
		t.Fatalf("background queue depth = %d after a Boost=4 submit, want 1", d)
	}
	vip, _, err := s.Submit(Key{GraphID: "vip", Opt: SolveOptions{Seed: 1}}, cycle(t, 64), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	unblock()
	if _, err := s.Wait(context.Background(), vip); err != nil {
		t.Fatal(err)
	}
	<-boosted.Done()
	// The blocker was dispatch 1; the interactive job must come next (its
	// graph is bigger, so smallest-graph-first cannot explain the win).
	if st, _ := s.Job(vip.ID()); st.DispatchSeq != 2 {
		t.Fatalf("interactive DispatchSeq = %d, want 2 (the background boost jumped ahead)", st.DispatchSeq)
	}
	st, _ := s.Job(boosted.ID())
	if st.Class != ClassBackground || st.State != StateDone || st.DispatchSeq != 3 || st.Progress.RunsDone != 4 {
		t.Fatalf("boosted status = %+v, want done background dispatch 3 with 4 runs", st)
	}
}

// TestCoalesceEscalatesQueuedJob: an interactive request joining a queued
// background job pulls the job into the interactive queue, so the shared
// solve is dispatched at the stronger waiter's priority.
func TestCoalesceEscalatesQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	key := Key{GraphID: "shared", Opt: SolveOptions{Seed: 5}}
	a, _, err := s.Submit(key, cycle(t, 32), SubmitOpts{Class: ClassBackground, Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := s.Submit(Key{GraphID: "other", Opt: SolveOptions{Seed: 6}},
		cycle(t, 8), SubmitOpts{Class: ClassBackground, Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	joined, hit, err := s.Submit(key, cycle(t, 32), SubmitOpts{Class: ClassInteractive})
	if err != nil || !hit || joined != a {
		t.Fatalf("interactive join: hit=%v same=%v err=%v", hit, joined == a, err)
	}
	unblock()
	if _, err := s.Wait(context.Background(), joined); err != nil {
		t.Fatal(err)
	}
	<-other.Done()
	sa, _ := s.Job(a.ID())
	so, _ := s.Job(other.ID())
	if sa.Class != ClassInteractive {
		t.Fatalf("joined job class = %s, want interactive after escalation", sa.Class)
	}
	// Without escalation, smallest-graph-first inside background would
	// dispatch "other" (8 edges) before "shared" (32 edges).
	if sa.DispatchSeq > so.DispatchSeq {
		t.Fatalf("escalated job dispatched at %d, after the background job at %d", sa.DispatchSeq, so.DispatchSeq)
	}
	if m := s.Metrics(); m.Escalated != 1 {
		t.Fatalf("Escalated = %d, want 1", m.Escalated)
	}
}

// TestJobEventLog: a job's event log tells the whole story in order —
// queued, running, solver phases, terminal result — and the terminal
// event carries the value.
func TestJobEventLog(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	g := parcut.RandomGraph(60, 200, 20, 9)
	j, _, err := s.Submit(Key{GraphID: "ev", Opt: SolveOptions{Seed: 2}}, g, SubmitOpts{Class: ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	evs, _, ended := j.Events(0)
	if !ended {
		t.Fatal("finished job's event log does not report ended")
	}
	if len(evs) < 4 {
		t.Fatalf("only %d events recorded: %+v", len(evs), evs)
	}
	// A resume cursor past the terminal event must report ended with no
	// events — the signal that keeps event streams from hanging forever.
	if tail, _, ended := j.Events(len(evs)); len(tail) != 0 || !ended {
		t.Fatalf("Events past the end = %d events, ended=%v; want 0 and true", len(tail), ended)
	}
	if evs[0].Type != "state" || evs[0].State != StateQueued {
		t.Fatalf("first event = %+v, want queued", evs[0])
	}
	phases := map[string]bool{}
	for _, ev := range evs {
		if ev.Type == "phase" {
			phases[ev.Phase] = true
		}
	}
	if !phases["packing"] || !phases["scan"] {
		t.Fatalf("phase events %v, want both packing and scan", phases)
	}
	last := evs[len(evs)-1]
	if !last.Terminal || last.Type != "result" || last.Value == nil || *last.Value != res.Value {
		t.Fatalf("terminal event = %+v, want result with value %d", last, res.Value)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	// Phase wall time flowed into the batch class's histograms for the
	// default engine.
	durations := s.Metrics().Classes[ClassBatch.rank()].PhaseDurationsByEngine
	count := map[string]int64{}
	for _, ph := range durations {
		if ph.Engine == engine.Default {
			count[ph.Phase] = ph.Hist.Count
		}
	}
	if count["packing"] == 0 || count["scan"] == 0 {
		t.Fatalf("phase durations not recorded: %+v", durations)
	}
}
