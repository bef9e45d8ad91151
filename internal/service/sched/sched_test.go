package sched

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	parcut "repro"
)

// cycle builds a small cycle graph whose minimum cut is the two lightest
// edges — fast to solve and easy to assert.
func cycle(t *testing.T, n int) *parcut.Graph {
	t.Helper()
	g := parcut.NewGraph(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n, int64(2+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// slow builds a job heavy enough to keep a worker busy until canceled; no
// test ever runs it to completion, so its absolute cost only bounds the
// cancellation latency (one boost run plus one bough phase).
func slow() *parcut.Graph { return parcut.RandomGraph(1000, 4000, 100, 42) }

func slowOpts() SolveOptions { return SolveOptions{Seed: 7, Boost: 1 << 20} }

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// block occupies one worker with a slow job and returns a cancel function
// that aborts it. The blocker is submitted with a single waiter whose
// context the cancel function ends, exercising the abandoned-waiter path.
func block(t *testing.T, s *Scheduler) context.CancelFunc {
	t.Helper()
	j, _, err := s.Submit(Key{GraphID: "blocker", Opt: slowOpts()}, slow(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go s.Wait(ctx, j)
	waitUntil(t, "blocker running", func() bool { return s.Metrics().Running >= 1 })
	return cancel
}

func shutdown(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestSolveAndResultCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	g := cycle(t, 8)
	key := Key{GraphID: "g1", Opt: SolveOptions{Seed: 1}}

	j, hit, err := s.Submit(key, g, SubmitOpts{})
	if err != nil || hit {
		t.Fatalf("first Submit: hit=%v err=%v", hit, err)
	}
	res, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Value != 4 { // lightest two cycle edges: 2+2
		t.Fatalf("Value = %d, want 4", res.Value)
	}

	j2, hit, err := s.Submit(key, g, SubmitOpts{})
	if err != nil || !hit {
		t.Fatalf("repeat Submit: hit=%v err=%v", hit, err)
	}
	if j2 != j {
		t.Fatal("repeat Submit returned a different job")
	}
	if _, err := s.Wait(context.Background(), j2); err != nil {
		t.Fatalf("Wait on cached job: %v", err)
	}
	m := s.Metrics()
	if m.Solve.Count != 1 || m.CacheHits != 1 || m.Coalesced != 0 {
		t.Fatalf("metrics = %+v, want 1 solve, 1 cache hit, 0 coalesced", m)
	}
	st, ok := s.Job(j.ID())
	if !ok || st.State != StateDone || st.Value != 4 {
		t.Fatalf("Job status = %+v ok=%v", st, ok)
	}
	// Finished jobs must not pin their graph: retained memory stays
	// bounded by the registry budget, not the job history.
	s.mu.Lock()
	retained := j.g != nil
	s.mu.Unlock()
	if retained {
		t.Fatal("finished job still references its graph")
	}
}

func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	// Occupy the only worker so the duplicates below stay queued together.
	unblock := block(t, s)
	defer unblock()

	g := cycle(t, 10)
	key := Key{GraphID: "dup", Opt: SolveOptions{Seed: 3}}
	const dups = 5
	var wg sync.WaitGroup
	results := make([]parcut.Result, dups)
	for i := 0; i < dups; i++ {
		j, _, err := s.Submit(key, g, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			res, err := s.Wait(context.Background(), j)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, j)
	}
	unblock() // free the worker for the coalesced job
	wg.Wait()
	for i := 1; i < dups; i++ {
		if results[i].Value != results[0].Value {
			t.Fatalf("waiter %d got %d, waiter 0 got %d", i, results[i].Value, results[0].Value)
		}
	}
	m := s.Metrics()
	if m.CacheHits != dups-1 || m.Coalesced != dups-1 {
		t.Fatalf("metrics = %+v, want %d cache hits all coalesced", m, dups-1)
	}
	if m.Solve.Count != 1 { // one shared solve; the canceled blocker counts no solve
		t.Fatalf("Solve.Count = %d, want 1", m.Solve.Count)
	}
}

func TestSmallGraphsJumpTheQueue(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	big, _, err := s.Submit(Key{GraphID: "big", Opt: SolveOptions{Seed: 1}}, cycle(t, 64), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := s.Submit(Key{GraphID: "small", Opt: SolveOptions{Seed: 1}}, cycle(t, 8), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	unblock()
	if _, err := s.Wait(context.Background(), big); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), small); err != nil {
		t.Fatal(err)
	}
	sb, _ := s.Job(big.ID())
	ss, _ := s.Job(small.ID())
	if !ss.Finished.Before(sb.Finished) {
		t.Fatalf("small finished %v, big %v: want small first despite later submit", ss.Finished, sb.Finished)
	}
}

func TestExpiredDeadlineReturnsPromptly(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	j, _, err := s.Submit(Key{GraphID: "late", Opt: SolveOptions{Seed: 1}}, cycle(t, 8), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Wait(ctx, j)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait error = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Wait took %v, want prompt return", d)
	}
	// The abandoned job is canceled rather than run to completion, and the
	// canceled key is retryable.
	unblock()
	waitUntil(t, "job canceled", func() bool {
		st, ok := s.Job(j.ID())
		return ok && st.State == StateCanceled
	})
	if m := s.Metrics(); m.Canceled < 1 {
		t.Fatalf("Canceled = %d, want >= 1", m.Canceled)
	}
	j2, hit, err := s.Submit(Key{GraphID: "late", Opt: SolveOptions{Seed: 1}}, cycle(t, 8), SubmitOpts{})
	if err != nil || hit {
		t.Fatalf("retry Submit: hit=%v err=%v", hit, err)
	}
	if res, err := s.Wait(context.Background(), j2); err != nil || res.Value == 0 {
		t.Fatalf("retry solve: res=%+v err=%v", res, err)
	}
}

// TestDoomedQueuedJobIsNotJoined covers the window where a queued job's
// context is already canceled (its only waiter timed out) but no worker
// has published its terminal state yet: a fresh Submit for the same key
// must start a new job, not inherit the doomed one's cancellation.
func TestDoomedQueuedJobIsNotJoined(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	key := Key{GraphID: "k", Opt: SolveOptions{Seed: 1}}
	g := cycle(t, 8)
	doomed, _, err := s.Submit(key, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Wait(ctx, doomed); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on doomed job: %v", err)
	}
	// The doomed job is still queued (the worker is blocked) with a dead
	// context; the retry must get a fresh job and a real result.
	fresh, hit, err := s.Submit(key, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if hit || fresh == doomed {
		t.Fatalf("retry joined the doomed job (hit=%v)", hit)
	}
	unblock()
	if res, err := s.Wait(context.Background(), fresh); err != nil || res.Value != 4 {
		t.Fatalf("fresh job: res=%+v err=%v", res, err)
	}
	waitUntil(t, "doomed job published", func() bool {
		st, _ := s.Job(doomed.ID())
		return st.State == StateCanceled
	})
	// The doomed job's cleanup must not have evicted the fresh cached
	// result from the key cache.
	again, hit, err := s.Submit(key, g, SubmitOpts{})
	if err != nil || !hit || again != fresh {
		t.Fatalf("cached result lost after doomed cleanup: hit=%v err=%v", hit, err)
	}
	if _, err := s.Wait(context.Background(), again); err != nil {
		t.Fatal(err)
	}
}

func TestMidRunCancellationAborts(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	j, _, err := s.Submit(Key{GraphID: "slow", Opt: slowOpts()}, slow(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job running", func() bool { return s.Metrics().Running == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Wait(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want Canceled", err)
	}
	waitUntil(t, "solver aborted", func() bool {
		st, _ := s.Job(j.ID())
		return st.State == StateCanceled
	})
	if st, _ := s.Job(j.ID()); st.Err == "" {
		t.Fatalf("canceled job has no error: %+v", st)
	}
	// The Boost=2^20 job stopped between runs: no solve completed.
	if m := s.Metrics(); m.Solve.Count != 0 {
		t.Fatalf("Solve.Count = %d, want 0", m.Solve.Count)
	}
}

// TestHistoryBytesBoundsRetainedPartitions: finished jobs pin their InCut
// slices only up to the HistoryBytes budget, oldest first.
func TestHistoryBytesBoundsRetainedPartitions(t *testing.T) {
	s := New(Config{Workers: 1, HistoryBytes: 10}) // one 8-byte partition fits, two do not
	defer shutdown(t, s)
	g := cycle(t, 8)
	solve := func(seed int64) *Job {
		j, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: seed, WantPartition: true}}, g, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := s.Wait(context.Background(), j); err != nil || len(res.InCut) != 8 {
			t.Fatalf("solve %d: res=%+v err=%v", seed, res, err)
		}
		return j
	}
	first, second := solve(1), solve(2)
	if _, ok := s.Job(first.ID()); ok {
		t.Fatal("first job survived the partition-byte budget")
	}
	if _, ok := s.Job(second.ID()); !ok {
		t.Fatal("newest job was evicted")
	}
	// The evicted job's cached result went with it: same key re-solves.
	j, hit, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 1, WantPartition: true}}, g, SubmitOpts{})
	if err != nil || hit {
		t.Fatalf("re-submit after eviction: hit=%v err=%v", hit, err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	g := cycle(t, 12)
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: int64(i)}}, g, SubmitOpts{Detached: true})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, j := range jobs {
		st, ok := s.Job(j.ID())
		if !ok || st.State != StateDone {
			t.Fatalf("job %s not drained: %+v", j.ID(), st)
		}
	}
	if _, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 99}}, g, SubmitOpts{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Shutdown = %v, want ErrDraining", err)
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1})
	j, _, err := s.Submit(Key{GraphID: "slow", Opt: slowOpts()}, slow(), SubmitOpts{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job running", func() bool { return s.Metrics().Running == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	st, _ := s.Job(j.ID())
	if st.State != StateCanceled {
		t.Fatalf("straggler state = %s, want canceled", st.State)
	}
}

// TestBoostMatchesLibrary: a boosted request is one job that runs
// parcut's boost loop on its worker, so its Value, TreesScanned and
// partition equal parcut.MinCut's for the same Seed, Boost and Engine, and
// it costs one dispatch and one solve however many runs it carries.
func TestBoostMatchesLibrary(t *testing.T) {
	g := parcut.RandomGraph(60, 240, 50, 42)
	s := New(Config{Workers: 4})
	defer shutdown(t, s)
	for i, eng := range []string{"geissmann", "andersonblelloch"} {
		want, err := parcut.MinCut(g, parcut.Options{Seed: 5, Boost: 8, WantPartition: true, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		j, hit, err := s.Submit(Key{GraphID: "m", Opt: SolveOptions{Seed: 5, Boost: 8, WantPartition: true, Engine: eng}}, g, SubmitOpts{})
		if err != nil || hit {
			t.Fatalf("%s Submit: hit=%v err=%v", eng, hit, err)
		}
		got, err := s.Wait(context.Background(), j)
		if err != nil {
			t.Fatalf("%s Wait: %v", eng, err)
		}
		if got.Value != want.Value || got.TreesScanned != want.TreesScanned || !slices.Equal(got.InCut, want.InCut) {
			t.Fatalf("%s: scheduled boost %+v, library %+v", eng, got, want)
		}
		if st, _ := s.Job(j.ID()); st.Progress.RunsDone != 8 {
			t.Fatalf("%s: RunsDone = %d, want 8 runs in the one job", eng, st.Progress.RunsDone)
		}
		if m := s.Metrics(); m.Solve.Count != int64(i+1) || m.PeakRunning != 1 {
			t.Fatalf("%s: Solve.Count = %d, PeakRunning = %d; want %d and 1 (one job per request)",
				eng, m.Solve.Count, m.PeakRunning, i+1)
		}
	}
}

// TestCancelBoostedJobStopsRuns: canceling a running Boost=2^20 job by ID
// ends it between runs, with no solve completed. The last waiter leaving
// is TestMidRunCancellationAborts.
func TestCancelBoostedJobStopsRuns(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	j, _, err := s.Submit(Key{GraphID: "slow", Opt: slowOpts()}, slow(), SubmitOpts{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "job running", func() bool { return s.Metrics().Running == 1 })
	if !s.Cancel(j.ID()) {
		t.Fatal("Cancel = false for a running job")
	}
	<-j.Done()
	if st, _ := s.Job(j.ID()); st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if m := s.Metrics(); m.Solve.Count != 0 || m.Running != 0 || m.QueueDepth != 0 {
		t.Fatalf("Solve.Count %d, Running %d, QueueDepth %d after cancel; want all 0",
			m.Solve.Count, m.Running, m.QueueDepth)
	}
}

// TestCancelQueuedJobLeavesHeapEagerly: a canceled queued job must leave
// the priority heap (and the queue-depth gauge) immediately instead of
// waiting for a worker to pop and discard it.
func TestCancelQueuedJobLeavesHeapEagerly(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()

	j, _, err := s.Submit(Key{GraphID: "victim", Opt: SolveOptions{Seed: 1}}, cycle(t, 8), SubmitOpts{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Metrics().QueueDepth; d != 1 {
		t.Fatalf("QueueDepth = %d before cancel, want 1 (the victim queued)", d)
	}
	if !s.Cancel(j.ID()) {
		t.Fatal("Cancel = false for a queued job")
	}
	// Eager: no worker has freed up, yet the depth already dropped and the
	// job is terminal.
	if d := s.Metrics().QueueDepth; d != 0 {
		t.Fatalf("QueueDepth = %d after cancel, want 0", d)
	}
	st, ok := s.Job(j.ID())
	if !ok || st.State != StateCanceled || st.Err == "" {
		t.Fatalf("victim status = %+v ok=%v, want canceled with error", st, ok)
	}
	if m := s.Metrics(); m.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", m.Canceled)
	}
}

// TestDrainRejectionsAreNotCountedAsSubmitted: the submitted counter must
// only move for accepted submissions; drain rejections get their own.
func TestDrainRejectionsAreNotCountedAsSubmitted(t *testing.T) {
	s := New(Config{Workers: 1})
	g := cycle(t, 8)
	if _, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 1}}, g, SubmitOpts{Detached: true}); err != nil {
		t.Fatal(err)
	}
	shutdown(t, s)
	if _, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 2}}, g, SubmitOpts{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	m := s.Metrics()
	if m.Submitted != 1 || m.Rejected != 1 {
		t.Fatalf("Submitted = %d, Rejected = %d; want 1 and 1", m.Submitted, m.Rejected)
	}
}

// TestBoostZeroAndOneShareAKey: 0 and 1 both mean a single run, so the
// two spellings must hit one cache entry.
func TestBoostZeroAndOneShareAKey(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	g := cycle(t, 8)
	a, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 4, Boost: 0}}, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	b, hit, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 4, Boost: 1}}, g, SubmitOpts{})
	if err != nil || !hit || a != b {
		t.Fatalf("Boost=1 resubmit: hit=%v err=%v", hit, err)
	}
	if _, err := s.Wait(context.Background(), b); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidateGraphDropsCachedResults: after invalidation, a repeat of
// a previously cached request must run the solver again — the staleness
// guard behind DELETE /v1/graphs/{id}, where a re-uploaded graph recycles
// its content-addressed ID.
func TestInvalidateGraphDropsCachedResults(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	g := cycle(t, 8)
	key := Key{GraphID: "g1", Opt: SolveOptions{Seed: 1}}
	otherKey := Key{GraphID: "g2", Opt: SolveOptions{Seed: 1}}

	j, _, err := s.Submit(key, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	jo, _, err := s.Submit(otherKey, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), jo); err != nil {
		t.Fatal(err)
	}

	if n := s.InvalidateGraph("g1"); n != 1 {
		t.Fatalf("InvalidateGraph removed %d keys, want 1", n)
	}
	j2, hit, err := s.Submit(key, g, SubmitOpts{})
	if err != nil || hit {
		t.Fatalf("post-invalidate Submit: hit=%v err=%v", hit, err)
	}
	if j2 == j {
		t.Fatal("post-invalidate Submit rejoined the stale job")
	}
	res, err := s.Wait(context.Background(), j2)
	if err != nil || res.Value != 4 {
		t.Fatalf("re-solve: res=%+v err=%v", res, err)
	}
	if m := s.Metrics(); m.Solve.Count != 3 {
		t.Fatalf("Solve.Count = %d, want 3 (invalidated key re-ran)", m.Solve.Count)
	}

	// The untouched graph's cache survives.
	_, hit, err = s.Submit(otherKey, g, SubmitOpts{})
	if err != nil || !hit {
		t.Fatalf("other graph lost its cache: hit=%v err=%v", hit, err)
	}
	if n := s.InvalidateGraph("unknown"); n != 0 {
		t.Fatalf("InvalidateGraph(unknown) = %d", n)
	}
}

// TestInvalidateGraphWithInFlightJob: invalidating while a job runs lets
// the job finish for its waiters but prevents later joins. Every
// cancellation happens before the assertions so a failed expectation
// cannot strand the drain.
func TestInvalidateGraphWithInFlightJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	key := Key{GraphID: "gf", Opt: slowOpts()}
	j, _, err := s.Submit(key, slow(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waitDone := make(chan error, 1)
	go func() {
		_, werr := s.Wait(ctx, j)
		waitDone <- werr
	}()
	waitUntil(t, "job running", func() bool { return s.Metrics().Running >= 1 })

	n := s.InvalidateGraph("gf")
	// A fresh submit must start a new job, not join the invalidated one.
	j2, hit, err2 := s.Submit(key, slow(), SubmitOpts{})
	if err2 == nil {
		s.Cancel(j2.ID())
	}
	cancel()
	werr := <-waitDone

	if n != 1 {
		t.Fatalf("InvalidateGraph = %d, want 1", n)
	}
	if err2 != nil || hit || j2 == j {
		t.Fatalf("Submit joined invalidated in-flight job: hit=%v same=%v err=%v", hit, j2 == j, err2)
	}
	if werr == nil {
		t.Fatal("blocked waiter returned nil after cancel")
	}
}

// TestMetricsAggregateExecutorPoolCounters: the scheduler's Metrics must
// surface the shared executor's counters. Every solve borrows its working
// arrays from the executor's arena, so after one solve the arena counters
// are non-zero, and after a second solve of the same shape the free-lists
// are warm and hits appear. GOMAXPROCS is raised to 2 while the scheduler
// is built, so the executor can fork.
func TestMetricsAggregateExecutorPoolCounters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	g := cycle(t, 64)
	for seed := int64(1); seed <= 2; seed++ {
		j, _, err := s.Submit(Key{GraphID: "pm", Opt: SolveOptions{Seed: seed}}, g, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), j); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	m := s.Metrics()
	if m.Pool.ArenaMisses == 0 {
		t.Errorf("Pool.ArenaMisses = 0, want > 0 (first solve must borrow fresh buffers)")
	}
	if m.Pool.ArenaHits == 0 {
		t.Errorf("Pool.ArenaHits = 0, want > 0 (second solve must recycle)")
	}
	if m.Pool.InlineRuns != 0 {
		t.Errorf("Pool.InlineRuns = %d, want 0 (no saturation collapse)", m.Pool.InlineRuns)
	}
	if m.Pool.Forks == 0 {
		t.Errorf("no forks recorded at width 2; counters = %+v", m.Pool)
	}
}

// TestIDPrefix pins the cluster-wide job-ID contract: a scheduler given
// an IDPrefix mints every job ID under it, and the default prefix is
// empty (single-node IDs stay "job-N"). Cross-node job lookup routes by
// this prefix, so it may never silently change.
func TestIDPrefix(t *testing.T) {
	s := New(Config{Workers: 1, IDPrefix: "n7-"})
	defer shutdown(t, s)
	j, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 1}}, cycle(t, 8), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j.ID(), "n7-job-") {
		t.Fatalf("job ID %q does not carry the configured prefix", j.ID())
	}

	plain := New(Config{Workers: 1})
	defer shutdown(t, plain)
	pj, _, err := plain.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 1}}, cycle(t, 8), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Wait(context.Background(), pj); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(pj.ID(), "job-") {
		t.Fatalf("unprefixed scheduler minted %q, want job-N", pj.ID())
	}
}
