package par

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// --- deque unit tests ---

func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	var d deque
	order := make([]int, 0, 8)
	mk := func(i int) task { return task{f: func() { order = append(order, i) }} }
	for i := 0; i < 4; i++ {
		if !d.pushBottom(mk(i)) {
			t.Fatalf("pushBottom(%d) reported full on empty deque", i)
		}
	}
	if got := d.size(); got != 4 {
		t.Fatalf("size = %d, want 4", got)
	}
	// Thief takes the oldest.
	if tk, ok := d.stealTop(); !ok {
		t.Fatal("stealTop on non-empty deque failed")
	} else {
		tk.f()
	}
	// Owner takes the newest.
	if tk, ok := d.popBottom(); !ok {
		t.Fatal("popBottom on non-empty deque failed")
	} else {
		tk.f()
	}
	if tk, ok := d.stealTop(); !ok {
		t.Fatal("second stealTop failed")
	} else {
		tk.f()
	}
	if tk, ok := d.popBottom(); !ok {
		t.Fatal("last popBottom failed")
	} else {
		tk.f()
	}
	want := []int{0, 3, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
	if _, ok := d.popBottom(); ok {
		t.Fatal("popBottom on empty deque succeeded")
	}
	if _, ok := d.stealTop(); ok {
		t.Fatal("stealTop on empty deque succeeded")
	}
}

func TestDequeFullReportsFalse(t *testing.T) {
	var d deque
	nop := task{f: func() {}}
	for i := 0; i < dequeCap; i++ {
		if !d.pushBottom(nop) {
			t.Fatalf("deque full after %d pushes, cap is %d", i, dequeCap)
		}
	}
	if d.pushBottom(nop) {
		t.Fatal("pushBottom succeeded on a full deque")
	}
	if _, ok := d.popBottom(); !ok {
		t.Fatal("popBottom failed on full deque")
	}
	if !d.pushBottom(nop) {
		t.Fatal("pushBottom failed after freeing a slot")
	}
}

func TestDequeWraparound(t *testing.T) {
	var d deque
	nop := task{f: func() {}}
	// Cycle head/tail far past dequeCap to exercise index wrapping.
	for round := 0; round < 5*dequeCap; round++ {
		if !d.pushBottom(nop) {
			t.Fatalf("push failed at round %d", round)
		}
		if !d.pushBottom(nop) {
			t.Fatalf("push failed at round %d", round)
		}
		if _, ok := d.stealTop(); !ok {
			t.Fatalf("steal failed at round %d", round)
		}
		if _, ok := d.popBottom(); !ok {
			t.Fatalf("pop failed at round %d", round)
		}
		if d.size() != 0 {
			t.Fatalf("size = %d after balanced ops at round %d", d.size(), round)
		}
	}
}

// --- stealing stress: determinism across widths with stealing forced ---

// stressSolve runs a nested fork-join workload — parallel sorts, scans,
// merges and reductions forked as sibling branches from goroutines that
// own no lane — and returns a deterministic digest. Pushes from no-lane
// goroutines land on rotating victims' deques, so at any width > 1 other
// lanes must steal or be handed work they did not push: exactly the
// cross-lane traffic that must not affect results.
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
	p.Do(
		func() { SortStableOn(p, xs, func(a, b int64) bool { return a < b }) },
		func() { SortStableOn(p, ys, func(a, b int64) bool { return a < b }) },
		func() { scanTot = p.ExclusiveSum(us, make([]int64, n)) },
		func() { redTot = p.SumInt64(vs) },
	)
	MergeOn(p, xs, ys, zs, func(a, b int64) bool { return a < b })
	var digest int64
	p.For(2*n, func(i int) { _ = i })
	for i, z := range zs {
		digest += z * int64(i%97)
	}
	return digest + 31*scanTot + 17*redTot
}

func TestStealingStressWidthEquivalence(t *testing.T) {
	const n = 1 << 15
	widths := []int{1, 2, 7, runtime.GOMAXPROCS(0)}

	// Drop the cutoffs so the recursion forks aggressively even at this
	// (test-sized) n: deep cascades at width 2 and 7 guarantee deques
	// fill, spill, and get stolen from. Comparing these widths against
	// width 1 also pins that cutoffs never change a result.
	const low = 1 << 10
	forced := cutoffs{forGrain: low, scan: low, reduce: low, merge: low, sort: low}

	var want int64
	for wi, w := range widths {
		p := NewPool(w)
		p.cut = forced
		var got int64
		// Several concurrent no-lane callers, several rounds each: bursty
		// nested fork-join from outside the worker set.
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
			t.Fatalf("width %d digest = %d, width 1 digest = %d: stealing changed results", w, got, want)
		}
		st := p.Stats()
		if w > 1 {
			if st.SharedPushes == 0 {
				t.Errorf("width %d: no shared pushes — the no-lane fork path never ran", w)
			}
			if st.InlineRuns != 0 {
				t.Errorf("width %d: %d forks degraded to inline execution on an open pool", w, st.InlineRuns)
			}
			t.Logf("width %d: steals=%d local=%d shared=%d overflow=%d",
				w, st.Steals, st.LocalPushes, st.SharedPushes, st.OverflowPushes)
		}
		p.Close()
	}
}

// --- regression: saturation must not serialize into the caller ---

// TestNoSaturationCollapse guards against the old channel-pool behavior
// where a fork finding the shared queue full ran the branch inline in the
// caller, serializing bursty fan-out. With deques, bursts spill to the
// overflow queue and still execute on worker lanes: InlineRuns stays 0
// and observed parallelism exceeds 1.
func TestNoSaturationCollapse(t *testing.T) {
	const width = 4
	p := NewPool(width)
	defer p.Close()

	// Burst far past the per-lane deque capacity from a single no-lane
	// caller. Under the old pool (queue cap 8*width) most of these forks
	// would have collapsed inline.
	const burst = 8 * dequeCap
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
		t.Fatalf("%d forks ran inline on an open pool; overflow spill is broken", st.InlineRuns)
	}
	if got := st.SharedPushes + st.OverflowPushes; got != burst-1 {
		t.Fatalf("burst of %d forks recorded %d pushes (shared %d + overflow %d), want %d",
			burst, got, st.SharedPushes, st.OverflowPushes, burst-1)
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
			for r := 0; r < 50; r++ {
				if got := Default().SumInt64(xs); got != want {
					t.Errorf("SumInt64 = %d, want %d", got, want)
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
