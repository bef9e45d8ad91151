package par

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// --- queue unit test ---

// TestQueueFIFOAcrossGrowth pins the ring buffer: tasks come out oldest
// first, including across a doubling that happens while the oldest task
// sits mid-buffer.
func TestQueueFIFOAcrossGrowth(t *testing.T) {
	var q queue
	var order []int
	mk := func(i int) task { return task{f: func() { order = append(order, i) }} }
	next := 0
	push := func(k int) {
		for ; k > 0; k-- {
			q.push(mk(next))
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			tk, ok := q.pop()
			if !ok {
				t.Fatalf("pop on a queue of %d tasks failed", q.n)
			}
			tk.f()
		}
	}
	push(40)
	pop(30)
	push(100) // wraps the first buffer, then doubles it
	pop(110)
	if _, ok := q.pop(); ok {
		t.Fatal("pop on an empty queue succeeded")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("pop %d ran task %d, want FIFO order", i, v)
		}
	}
	if len(order) != next {
		t.Fatalf("ran %d of %d tasks", len(order), next)
	}
}

// --- the Steals counter ---

// TestStealsCountBranchesRunElsewhere pins what Steals counts on a
// width-2 pool: a forked branch that a goroutine other than its forker
// ran. A branch its forker takes back while joining it is not a steal.
func TestStealsCountBranchesRunElsewhere(t *testing.T) {
	// Two chunks, and chunk 0 blocks until chunk 1 has run: whichever
	// goroutine claims chunk 0, the forked helper must run on the worker.
	p := NewPool(2)
	ran1 := make(chan struct{})
	p.ForChunk(2, 1, func(lo, hi int) {
		if lo == 0 {
			<-ran1
		} else {
			close(ran1)
		}
	})
	if st := p.Stats(); st.Forks != 1 || st.Steals != 1 {
		t.Fatalf("blocked two-chunk loop: Forks %d, Steals %d, want 1 and 1", st.Forks, st.Steals)
	}
	p.Close()

	// Hold the only worker in a blocking branch, then fork from the
	// caller: nobody but the caller can run that fork.
	p = NewPool(2)
	defer p.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var before, after Stats
	p.Do(func() {
		<-held
		before = p.Stats()
		var ran bool
		p.Do(func() {}, func() { ran = true })
		after = p.Stats()
		if !ran {
			t.Error("the inner fork never ran")
		}
		close(release)
	}, func() {
		close(held)
		<-release
	})
	if got := after.Forks - before.Forks; got != 1 {
		t.Errorf("inner fork counted %d forks, want 1", got)
	}
	if after.Steals != before.Steals {
		t.Errorf("a fork its caller took back counted %d steals, want 0", after.Steals-before.Steals)
	}
	if st := p.Stats(); st.Forks != 2 || st.Steals != 1 {
		t.Errorf("after the join: Forks %d, Steals %d, want 2 and 1 (the worker ran the holding branch)", st.Forks, st.Steals)
	}
}

// --- stress: determinism across widths with cross-goroutine runs forced ---

// stressSolve runs a nested fork-join workload — parallel sorts, scans,
// merges and reductions forked as sibling branches from goroutines that
// are not workers — and returns a deterministic digest. At any width > 1
// the workers and the other callers run branches they did not fork:
// exactly the cross-goroutine traffic that must not affect results.
func stressSolve(p *Pool, n int) int64 {
	xs := make([]int64, n)
	ys := make([]int64, n)
	us := make([]int64, n)
	vs := make([]int64, n)
	zs := make([]int64, 2*n)
	for i := range xs {
		xs[i] = int64((i * 2654435761) % 10007)
		ys[i] = int64((i * 40503) % 9973)
		us[i] = ys[i]
		vs[i] = xs[i]
	}
	var scanTot, redTot int64
	var redIdx int
	p.Do(
		func() { SortStableOn(p, xs, func(a, b int64) bool { return a < b }) },
		func() { SortStableOn(p, ys, func(a, b int64) bool { return a < b }) },
		func() { scanTot = p.ExclusiveSum(us, make([]int64, n)) },
		func() { redTot, redIdx = p.MinInt64(vs) },
	)
	MergeOn(p, xs, ys, zs, func(a, b int64) bool { return a < b })
	var digest int64
	p.For(2*n, func(i int) { _ = i })
	for i, z := range zs {
		digest += z * int64(i%97)
	}
	return digest + 31*scanTot + 17*redTot + 13*int64(redIdx)
}

func TestStealingStressWidthEquivalence(t *testing.T) {
	const n = 1 << 15
	widths := []int{1, 2, 7, runtime.GOMAXPROCS(0)}

	// Drop the cutoffs so the recursion forks aggressively even at this
	// (test-sized) n: deep cascades at width 2 and 7 keep the queue
	// backlogged and hand branches between goroutines. Comparing these
	// widths against width 1 also pins that cutoffs never change a
	// result.
	const low = 1 << 10
	forced := cutoffs{forGrain: low, scan: low, reduce: low, merge: low, sort: low}

	var want int64
	for wi, w := range widths {
		p := NewPool(w)
		p.cut = forced
		var got int64
		// Several concurrent callers, several rounds each: bursty nested
		// fork-join from outside the worker set.
		var wg sync.WaitGroup
		results := make([]int64, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var last int64
				for r := 0; r < 3; r++ {
					last = stressSolve(p, n)
				}
				results[g] = last
			}(g)
		}
		wg.Wait()
		got = results[0]
		for g, r := range results {
			if r != got {
				t.Fatalf("width %d: caller %d got %d, caller 0 got %d", w, g, r, got)
			}
		}
		if wi == 0 {
			want = got
		} else if got != want {
			t.Fatalf("width %d digest = %d, width 1 digest = %d: scheduling changed results", w, got, want)
		}
		st := p.Stats()
		if w > 1 {
			if st.Forks == 0 {
				t.Errorf("width %d: no forks — the parallel paths never ran", w)
			}
			if st.InlineRuns != 0 {
				t.Errorf("width %d: %d forks degraded to inline execution on an open pool", w, st.InlineRuns)
			}
			t.Logf("width %d: forks=%d steals=%d", w, st.Forks, st.Steals)
		}
		p.Close()
	}
}

// --- regression: saturation must not serialize into the caller ---

// TestNoSaturationCollapse guards against the old channel-pool behavior
// where a fork finding the shared queue full ran the branch inline in the
// caller, serializing bursty fan-out. The queue is unbounded, so a burst
// queues and still executes on the workers: InlineRuns stays 0 and
// observed parallelism exceeds 1.
func TestNoSaturationCollapse(t *testing.T) {
	const width = 4
	p := NewPool(width)
	defer p.Close()

	// Burst far past the old pool's queue capacity from a single caller.
	// Under the old pool (queue cap 8*width) most of these forks would
	// have collapsed inline.
	const burst = 2048
	var running, peak atomicMax
	fs := make([]func(), burst)
	for i := range fs {
		fs[i] = func() {
			r := running.add(1)
			peak.max(r)
			time.Sleep(10 * time.Microsecond)
			running.add(-1)
		}
	}
	p.Do(fs...)

	st := p.Stats()
	if st.InlineRuns != 0 {
		t.Fatalf("%d forks ran inline on an open pool; the queue refused forks", st.InlineRuns)
	}
	if st.Forks != burst-1 {
		t.Fatalf("burst of %d branches recorded %d forks, want %d", burst, st.Forks, burst-1)
	}
	if got := peak.load(); got < 2 {
		t.Fatalf("peak parallelism %d during a %d-task burst on a width-%d pool", got, burst, width)
	}
	if got := peak.load(); got > width {
		t.Fatalf("peak parallelism %d exceeds pool width %d", got, width)
	}
}

// --- Default() replacement race ---

// TestDefaultConcurrentResize hammers Default() from many goroutines
// while GOMAXPROCS flips underneath, asserting no deadlock (primitives
// keep returning correct results) and no worker leak afterwards.
func TestDefaultConcurrentResize(t *testing.T) {
	if testing.Short() {
		t.Skip("resize stress skipped in -short")
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	xs := make([]int64, 40000)
	for i := range xs {
		xs[i] = int64(i)
	}
	var want int64 = int64(len(xs)) * int64(len(xs)-1) / 2

	stop := make(chan struct{})
	var flip sync.WaitGroup
	flip.Add(1)
	go func() {
		defer flip.Done()
		w := orig
		for {
			select {
			case <-stop:
				runtime.GOMAXPROCS(orig)
				return
			default:
			}
			if w = w%4 + 1; w == orig {
				w++
			}
			runtime.GOMAXPROCS(w)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int64, len(xs))
			for r := 0; r < 50; r++ {
				if got := Default().ExclusiveSum(xs, out); got != want {
					t.Errorf("ExclusiveSum total = %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flip.Wait()

	// Settle on the original width and let retired pools' workers exit.
	Default()
	deadline := time.Now().Add(5 * time.Second)
	budget := runtime.GOMAXPROCS(0) + 20 // current pool's workers + test harness slack
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= budget {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after resize storm (budget %d): retired default pools leaked workers", n, budget)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// atomicMax tracks a running count and its high-water mark.
type atomicMax struct {
	mu   sync.Mutex
	cur  int
	high int
}

func (a *atomicMax) add(d int) int {
	a.mu.Lock()
	a.cur += d
	c := a.cur
	a.mu.Unlock()
	return c
}

func (a *atomicMax) max(v int) {
	a.mu.Lock()
	if v > a.high {
		a.high = v
	}
	a.mu.Unlock()
}

func (a *atomicMax) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.high
}
