package par

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, Grain - 1, Grain, Grain + 1, 10 * Grain} {
		seen := make([]atomic.Int32, n)
		Default().For(n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForChunkPartitions(t *testing.T) {
	n := 5*Grain + 13
	var total atomic.Int64
	Default().ForChunk(n, 64, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != int64(n) {
		t.Fatalf("chunks cover %d of %d elements", total.Load(), n)
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Bool
	Default().Do(func() { a.Store(true) }, func() { b.Store(true) }, func() { c.Store(true) })
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("Do skipped a branch")
	}
	Default().Do() // must not hang
}

func TestReduceAndMin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 100, Grain, 3*Grain + 5} {
		xs := make([]int64, n)
		var want int64
		wantMin := int64(1 << 62)
		wantIdx := -1
		for i := range xs {
			xs[i] = int64(rng.Intn(2000) - 1000)
			want += xs[i]
			if xs[i] < wantMin {
				wantMin, wantIdx = xs[i], i
			}
		}
		var got atomic.Int64
		Default().ForChunk(n, Grain/4, func(lo, hi int) {
			var s int64
			for _, x := range xs[lo:hi] {
				s += x
			}
			got.Add(s)
		})
		if got.Load() != want {
			t.Fatalf("n=%d: chunked sum=%d want %d", n, got.Load(), want)
		}
		gotMin, gotIdx := Default().MinInt64(xs)
		if gotMin != wantMin || gotIdx != wantIdx {
			t.Fatalf("n=%d: min=(%d,%d) want (%d,%d)", n, gotMin, gotIdx, wantMin, wantIdx)
		}
	}
}

func TestMinInt64FirstIndexOnTies(t *testing.T) {
	xs := make([]int64, 3*Grain)
	for i := range xs {
		xs[i] = 7
	}
	if _, idx := Default().MinInt64(xs); idx != 0 {
		t.Fatalf("tie-break index = %d, want 0", idx)
	}
}

func TestExclusiveSumMatchesSequential(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		want := make([]int64, len(xs))
		var acc int64
		for i, x := range xs {
			want[i] = acc
			acc += x
		}
		got := make([]int64, len(xs))
		total := Default().ExclusiveSum(xs, got)
		if total != acc {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScansLarge(t *testing.T) {
	n := 9*Grain + 3
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i%17 - 8)
	}
	excl := make([]int64, n)
	incl := make([]int64, n)
	totE := Default().ExclusiveSum(xs, excl)
	totI := Default().InclusiveSum(xs, incl)
	var acc int64
	for i := 0; i < n; i++ {
		if excl[i] != acc {
			t.Fatalf("exclusive[%d]=%d want %d", i, excl[i], acc)
		}
		acc += xs[i]
		if incl[i] != acc {
			t.Fatalf("inclusive[%d]=%d want %d", i, incl[i], acc)
		}
	}
	if totE != acc || totI != acc {
		t.Fatalf("totals %d,%d want %d", totE, totI, acc)
	}
}

func TestScanInPlaceAliasing(t *testing.T) {
	n := 6*Grain + 1
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = 1
	}
	Default().ExclusiveSum(xs, xs)
	for i := range xs {
		if xs[i] != int64(i) {
			t.Fatalf("aliased scan wrong at %d: %d", i, xs[i])
		}
	}
}

func TestSegmentedBroadcast(t *testing.T) {
	for _, n := range []int{0, 1, 5, Grain, 7*Grain + 11} {
		present := make([]bool, n)
		vals := make([]int64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range present {
			present[i] = rng.Intn(3) == 0
			vals[i] = int64(rng.Intn(1000))
		}
		out := make([]int64, n)
		Default().SegmentedBroadcast(present, vals, out, -5)
		acc := int64(-5)
		for i := 0; i < n; i++ {
			if present[i] {
				acc = vals[i]
			}
			if out[i] != acc {
				t.Fatalf("n=%d pos=%d got %d want %d", n, i, out[i], acc)
			}
		}
	}
}

type kv struct {
	key int
	seq int
}

func TestMergeStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 10, 4 * Grain, 9*Grain + 1} {
		a := make([]kv, n)
		b := make([]kv, n/2+1)
		for i := range a {
			a[i] = kv{rng.Intn(50), i}
		}
		for i := range b {
			b[i] = kv{rng.Intn(50), n + i}
		}
		less := func(x, y kv) bool { return x.key < y.key }
		SortStableOn(nil, a, less)
		SortStableOn(nil, b, less)
		out := make([]kv, len(a)+len(b))
		MergeOn(nil, a, b, out, less)
		for i := 1; i < len(out); i++ {
			if out[i].key < out[i-1].key {
				t.Fatalf("merge not sorted at %d", i)
			}
			if out[i].key == out[i-1].key && out[i].seq < out[i-1].seq {
				t.Fatalf("merge not stable at %d: seq %d before %d", i, out[i-1].seq, out[i].seq)
			}
		}
	}
}

func TestSortStableLargeAndStability(t *testing.T) {
	n := 40*Grain + 17
	xs := make([]kv, n)
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = kv{rng.Intn(97), i}
	}
	SortStableOn(nil, xs, func(x, y kv) bool { return x.key < y.key })
	for i := 1; i < n; i++ {
		if xs[i].key < xs[i-1].key {
			t.Fatalf("not sorted at %d", i)
		}
		if xs[i].key == xs[i-1].key && xs[i].seq < xs[i-1].seq {
			t.Fatalf("not stable at %d", i)
		}
	}
}

func TestPrimitivesUnderSingleWorker(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	xs := make([]int64, 3*Grain)
	for i := range xs {
		xs[i] = 2
	}
	if got, idx := Default().MinInt64(xs); got != 2 || idx != 0 {
		t.Fatalf("min under GOMAXPROCS=1: (%d,%d)", got, idx)
	}
	out := make([]int64, len(xs))
	if got := Default().ExclusiveSum(xs, out); got != int64(2*len(xs)) {
		t.Fatalf("scan under GOMAXPROCS=1: %d", got)
	}
}
