package par

import "testing"

// Steady-state allocation tests: the scan-family primitives must be
// allocation-free on the sequential path (width-1 pools and sub-cutoff
// sizes take it), and near-free on the parallel path, where the only
// per-call allocations are the loop-body closures — joins, chunk loops,
// and scratch all recycle.

func zeroAllocInput(n int) ([]int64, []int64) {
	xs := make([]int64, n)
	out := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 13)
	}
	return xs, out
}

func assertZeroAlloc(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; zero-alloc holds only in normal builds")
	}
	f() // warm the free-lists
	if avg := testing.AllocsPerRun(50, f); avg > 0 {
		t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
	}
}

func TestScanPrimitivesZeroAllocSequential(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	xs, out := zeroAllocInput(100_000)
	present := make([]bool, len(xs))
	for i := range present {
		present[i] = i%37 == 0
	}
	var sink int64
	assertZeroAlloc(t, "ExclusiveSum", func() { sink += p.ExclusiveSum(xs, out) })
	assertZeroAlloc(t, "InclusiveSum", func() { sink += p.InclusiveSum(xs, out) })
	assertZeroAlloc(t, "SegmentedBroadcast", func() { p.SegmentedBroadcast(present, xs, out, 0) })
	assertZeroAlloc(t, "MinInt64", func() { v, _ := p.MinInt64(xs); sink += v })
	_ = sink
}

// TestForZeroAllocPreBoundClosure pins the property the solver hot loops
// build on: a For/ForChunk call with a closure created once (not per
// call) allocates nothing on the sequential path.
func TestForZeroAllocPreBoundClosure(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	xs, _ := zeroAllocInput(10_000)
	body := func(i int) { xs[i]++ }
	chunk := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i]++
		}
	}
	assertZeroAlloc(t, "For", func() { p.For(len(xs), body) })
	assertZeroAlloc(t, "ForChunk", func() { p.ForChunk(len(xs), Grain, chunk) })
}

// TestParallelScanSteadyStateAllocs bounds the parallel path: after
// warm-up, a parallel scan's only allocations are its two loop-body
// closures (the join, chunk runs, and scratch partials all recycle).
func TestParallelScanSteadyStateAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	xs, out := zeroAllocInput(200_000)
	var sink int64
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; the closures-only bound holds only in normal builds")
	}
	run := func() { sink += p.ExclusiveSum(xs, out) }
	run()
	if avg := testing.AllocsPerRun(20, run); avg > 4 {
		t.Errorf("parallel ExclusiveSum: %.1f allocs/op, want <= 4 (closures only)", avg)
	}
	_ = sink
}

// TestMergeSortZeroAllocSequential pins the arena-recycled scratch on
// the sequential path: a width-1 merge runs straight through seqMerge,
// and a width-1 sort borrows its ping-pong buffer from the arena, so
// neither allocates at all.
func TestMergeSortZeroAllocSequential(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	const n = 1 << 14
	a := make([]int64, n)
	b := make([]int64, n)
	out := make([]int64, 2*n)
	xs := make([]int64, 2*n)
	seed := make([]int64, 2*n)
	for i := range a {
		a[i] = int64(2 * i)
		b[i] = int64(2*i + 1)
	}
	for i := range seed {
		seed[i] = int64((i * 2654435761) % (2 * n))
	}
	less := func(x, y int64) bool { return x < y }
	assertZeroAlloc(t, "MergeOn", func() { MergeOn(p, a, b, out, less) })
	assertZeroAlloc(t, "SortStableOn", func() {
		copy(xs, seed)
		SortStableOn(p, xs, less)
	})
}

// TestMergeSortSteadyStateAllocs bounds the parallel path: fork frames
// and the sort buffer recycle through the arena's typed free-lists, so
// after warm-up a parallel merge or sort allocates (almost) nothing —
// the only slack allowed is sync.Pool occasionally stranding a frame in
// another P's private slot. Before frames, merge_1m sat at 31 allocs/op
// and sort_1m at 182 allocs/op (~8.4 MB/op, dominated by the ping-pong
// buffer).
func TestMergeSortSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; steady-state bounds hold only in normal builds")
	}
	p := NewPool(4)
	defer p.Close()
	const n = 1 << 15
	a := make([]int64, n)
	b := make([]int64, n)
	out := make([]int64, 2*n)
	xs := make([]int64, 2*n)
	seed := make([]int64, 2*n)
	for i := range a {
		a[i] = int64(2 * i)
		b[i] = int64(2*i + 1)
	}
	for i := range seed {
		seed[i] = int64((i * 2654435761) % (2 * n))
	}
	less := func(x, y int64) bool { return x < y }
	mrun := func() { MergeOn(p, a, b, out, less) }
	srun := func() {
		copy(xs, seed)
		SortStableOn(p, xs, less)
	}
	mrun()
	srun()
	if avg := testing.AllocsPerRun(20, mrun); avg > 2 {
		t.Errorf("parallel MergeOn: %.1f allocs/op, want <= 2 (was 31 before frames)", avg)
	}
	if avg := testing.AllocsPerRun(20, srun); avg > 4 {
		t.Errorf("parallel SortStableOn: %.1f allocs/op, want <= 4 (was 182 before frames)", avg)
	}
}

func TestArenaCountsHitsAndMisses(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ar := p.Arena()
	// Borrow/return repeatedly: under -race, sync.Pool deliberately drops
	// a fraction of Puts, so no single round is guaranteed to recycle —
	// but across many rounds at least one must.
	var last *[]int64
	for i := 0; i < 100; i++ {
		sp := ar.Int64(500)
		ar.PutInt64(sp)
		last = sp
	}
	st := p.Stats()
	if st.ArenaMisses < 1 {
		t.Errorf("ArenaMisses = %d, want >= 1 (first borrow allocates)", st.ArenaMisses)
	}
	if st.ArenaHits < 1 {
		t.Errorf("ArenaHits = %d, want >= 1 (repeated borrows recycle)", st.ArenaHits)
	}
	if got := len(*last); got != 500 {
		t.Errorf("borrow has length %d, want 500", got)
	}
}
