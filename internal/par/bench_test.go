package par

import (
	"math/rand"
	"testing"
)

func benchInts(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(1000) - 500)
	}
	return xs
}

func BenchmarkExclusiveSum1M(b *testing.B) {
	xs := benchInts(1<<20, 1)
	out := make([]int64, len(xs))
	b.ReportAllocs()
	b.SetBytes(int64(len(xs) * 8))
	for i := 0; i < b.N; i++ {
		Default().ExclusiveSum(xs, out)
	}
}

func BenchmarkSegmentedBroadcast1M(b *testing.B) {
	n := 1 << 20
	present := make([]bool, n)
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range present {
		present[i] = rng.Intn(4) == 0
		vals[i] = int64(i)
	}
	out := make([]int64, n)
	b.ReportAllocs()
	b.SetBytes(int64(n * 8))
	for i := 0; i < b.N; i++ {
		Default().SegmentedBroadcast(present, vals, out, 0)
	}
}

func BenchmarkMerge1M(b *testing.B) {
	n := 1 << 19
	x := benchInts(n, 3)
	y := benchInts(n, 4)
	less := func(a, b int64) bool { return a < b }
	SortStableOn(nil, x, less)
	SortStableOn(nil, y, less)
	out := make([]int64, 2*n)
	b.ReportAllocs()
	b.SetBytes(int64(2 * n * 8))
	for i := 0; i < b.N; i++ {
		MergeOn(nil, x, y, out, less)
	}
}

func BenchmarkSortStable1M(b *testing.B) {
	src := benchInts(1<<20, 5)
	xs := make([]int64, len(src))
	less := func(a, b int64) bool { return a < b }
	b.ReportAllocs()
	b.SetBytes(int64(len(src) * 8))
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		SortStableOn(nil, xs, less)
	}
}

func BenchmarkReduceMin1M(b *testing.B) {
	xs := benchInts(1<<20, 6)
	b.ReportAllocs()
	b.SetBytes(int64(len(xs) * 8))
	for i := 0; i < b.N; i++ {
		Default().MinInt64(xs)
	}
}
