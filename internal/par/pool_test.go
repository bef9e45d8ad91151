package par

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolWidths are the widths every pool test sweeps: sequential, small,
// odd (so chunk boundaries don't align with powers of two), and the
// machine's own.
func poolWidths() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestPoolPrimitivesWidthEquivalence checks that every primitive returns
// bit-identical results at every pool width, on sizes straddling the
// sequential cutoffs.
func TestPoolPrimitivesWidthEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, Grain + 1, 4*Grain + 3, 9 * Grain} {
		xs := make([]int64, n)
		present := make([]bool, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(2001) - 1000)
			present[i] = rng.Intn(4) == 0
		}
		// References computed sequentially.
		wantSum := make([]int64, n)
		var acc int64
		for i, x := range xs {
			acc += x
			wantSum[i] = acc
		}
		wantBro := make([]int64, n)
		bacc := int64(-42)
		for i := range xs {
			if present[i] {
				bacc = xs[i]
			}
			wantBro[i] = bacc
		}
		sorted := append([]int64(nil), xs...)
		if n > 1 {
			seqSortStable(sorted, make([]int64, n), func(a, b int64) bool { return a < b })
		}

		for _, w := range poolWidths() {
			p := NewPool(w)
			if got := p.Width(); got != w {
				t.Fatalf("width %d: Width() = %d", w, got)
			}
			out := make([]int64, n)
			if total := p.InclusiveSum(xs, out); n > 0 && (total != wantSum[n-1] || !reflect.DeepEqual(out, wantSum)) {
				t.Fatalf("width %d n %d: InclusiveSum mismatch", w, n)
			}
			p.SegmentedBroadcast(present, xs, out, -42)
			if n > 0 && !reflect.DeepEqual(out, wantBro) {
				t.Fatalf("width %d n %d: SegmentedBroadcast mismatch", w, n)
			}
			if n > 0 {
				wantMin, wantIdx := seqMin(xs, 0)
				gotMin, gotIdx := p.MinInt64(xs)
				if gotMin != wantMin || gotIdx != wantIdx {
					t.Fatalf("width %d n %d: MinInt64 = (%d,%d), want (%d,%d)", w, n, gotMin, gotIdx, wantMin, wantIdx)
				}
			}
			ys := append([]int64(nil), xs...)
			SortStableOn(p, ys, func(a, b int64) bool { return a < b })
			if !reflect.DeepEqual(ys, sorted) {
				t.Fatalf("width %d n %d: SortStableOn mismatch", w, n)
			}
			var touched atomic.Int64
			p.For(n, func(i int) { touched.Add(int64(i) + 1) })
			var wantTouched int64
			for i := 0; i < n; i++ {
				wantTouched += int64(i) + 1
			}
			if touched.Load() != wantTouched {
				t.Fatalf("width %d n %d: For visited wrong set", w, n)
			}
			p.Close()
		}
	}
}

// TestMergeOnWidths checks the parallel merge across widths, including
// stability (equal keys keep a-before-b order).
func TestMergeOnWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type kv struct{ k, src int64 }
	n := 5*Grain + 11
	a := make([]kv, n)
	b := make([]kv, n/2)
	for i := range a {
		a[i] = kv{int64(rng.Intn(50)), 0}
	}
	for i := range b {
		b[i] = kv{int64(rng.Intn(50)), 1}
	}
	less := func(x, y kv) bool { return x.k < y.k }
	seqSortStable(a, make([]kv, len(a)), less)
	seqSortStable(b, make([]kv, len(b)), less)
	want := make([]kv, len(a)+len(b))
	seqMerge(a, b, want, less)
	for _, w := range poolWidths() {
		p := NewPool(w)
		got := make([]kv, len(a)+len(b))
		MergeOn(p, a, b, got, less)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: MergeOn mismatch", w)
		}
		p.Close()
	}
}

// TestDoWidthCap verifies that Do runs at most width branches at once:
// the pool must not regress to one-goroutine-per-branch.
func TestDoWidthCap(t *testing.T) {
	const width = 3
	p := NewPool(width)
	defer p.Close()
	var cur, peak atomic.Int32
	fs := make([]func(), 24)
	for i := range fs {
		fs[i] = func() {
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
		}
	}
	p.Do(fs...)
	if got := peak.Load(); got > width {
		t.Fatalf("Do ran %d branches concurrently on a width-%d pool", got, width)
	}
}

// TestPoolOwnsBoundedGoroutines: a pool spawns its workers once, and
// running primitives on it spawns nothing further.
func TestPoolOwnsBoundedGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	p := NewPool(8)
	after := runtime.NumGoroutine()
	if after-base > 7 {
		t.Fatalf("NewPool(8) spawned %d goroutines, want <= 7", after-base)
	}
	xs := make([]int64, 6*Grain)
	for i := range xs {
		xs[i] = int64(i % 97)
	}
	for iter := 0; iter < 50; iter++ {
		p.InclusiveSum(xs, xs)
		p.For(len(xs), func(i int) { xs[i] ^= 1 })
	}
	during := runtime.NumGoroutine()
	if during-base > 8 {
		t.Fatalf("primitives grew the goroutine count to %d over baseline %d", during, base)
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("after Close the pool still holds %d goroutines over baseline %d", runtime.NumGoroutine()-base, base)
}

// TestNestedPrimitivesNoDeadlock drives deeply nested fork-join through a
// narrow pool: loops inside loops inside Do, plus a concurrent caller per
// lane, must all complete (the help-first join makes this safe).
func TestNestedPrimitivesNoDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p.ForGrain(8, 1, func(i int) {
					p.Do(
						func() {
							p.ForGrain(8, 1, func(j int) {
								xs := make([]int64, 512)
								p.InclusiveSum(xs, xs)
							})
						},
						func() {
							ys := make([]int64, 3*Grain)
							p.ExclusiveSum(ys, ys)
						},
					)
				})
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested fork-join deadlocked")
	}
}

// TestClosedPoolStillComputes: primitives on a closed pool degrade to
// sequential execution but stay correct.
func TestClosedPoolStillComputes(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	xs := make([]int64, 5*Grain)
	for i := range xs {
		xs[i] = 1
	}
	if total := p.InclusiveSum(xs, xs); total != int64(len(xs)) {
		t.Fatalf("closed pool InclusiveSum total = %d", total)
	}
	ran := false
	p.Do(func() {}, func() { ran = true })
	if !ran {
		t.Fatal("closed pool dropped a Do branch")
	}
}

// TestDefaultPoolTracksGOMAXPROCS: the shared default pool resizes when
// GOMAXPROCS changes (so `go test -cpu 1,2,4` really exercises the
// default-pool paths at every width), and the superseded pool's workers
// are released.
func TestDefaultPoolTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	first := Default()
	if first.Width() != old {
		t.Fatalf("default width %d != GOMAXPROCS %d", first.Width(), old)
	}
	next := old + 2
	runtime.GOMAXPROCS(next)
	resized := Default()
	if resized.Width() != next {
		t.Fatalf("after GOMAXPROCS(%d) default width = %d", next, resized.Width())
	}
	// The old default still computes (degraded to sequential is fine).
	xs := []int64{1, 2, 3}
	if total := first.InclusiveSum(xs, xs); total != 6 {
		t.Fatalf("superseded default pool broken: total %d", total)
	}
	// Closing a default (old or new) is a no-op for callers.
	resized.Close()
	if got := Default().InclusiveSum([]int64{4}, []int64{0}); got != 4 {
		t.Fatalf("default pool after Close: %d", got)
	}
}

// TestDefaultPoolSharedByPackageFuncs: a nil pool is the default pool,
// for methods and for the package functions MergeOn and SortStableOn.
func TestDefaultPoolSharedByPackageFuncs(t *testing.T) {
	var nilPool *Pool
	if w := Default().Width(); w < 1 || nilPool.Width() != w {
		t.Fatalf("nil pool width %d, default width %d", nilPool.Width(), w)
	}
	xs := []int64{3, 1, 2}
	SortStableOn(nil, xs, func(a, b int64) bool { return a < b })
	if xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("SortStableOn on the nil pool broken: %v", xs)
	}
}
