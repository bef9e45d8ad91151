package parcut

// Benchmark harness for the paper's quantitative artifacts (the E1–E10
// experiments of cmd/paperbench, one per -exp name). Each bench
// regenerates the measurement behind one table row or claim; paperbench
// prints the same series as markdown tables. Custom metrics:
//
//	work/op   — Work-Depth model work per graph edge or per operation
//	depth/op  — model depth (critical path length)
//	misses/op — ideal-cache misses per operation (E7)
//
// Run everything with:  go test -bench=. -benchmem .
import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/graph/gen"
	"repro/internal/listrank"
	"repro/internal/minpath"
	"repro/internal/minprefix"
	"repro/internal/packing"
	"repro/internal/respect"
	"repro/internal/tree"
	"repro/internal/wd"
)

// --- E1: Table 1, work column -------------------------------------------

func BenchmarkTable1OursSparse(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		g := gen.RandomConnected(n, 4*n, 100, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var meter wd.Meter
			for i := 0; i < b.N; i++ {
				meter.Reset()
				if _, err := core.MinCut(g, core.Options{Seed: 7, Meter: &meter}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(meter.Work())/float64(g.M()), "work/edge")
			b.ReportMetric(float64(meter.Depth()), "depth")
		})
	}
}

func BenchmarkTable1OursDense(b *testing.B) {
	for _, n := range []int{128, 256} {
		g := gen.RandomConnected(n, n*n/8, 100, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var meter wd.Meter
			for i := 0; i < b.N; i++ {
				meter.Reset()
				if _, err := core.MinCut(g, core.Options{Seed: 7, Meter: &meter}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(meter.Work())/float64(g.M()), "work/edge")
		})
	}
}

func BenchmarkTable1KargerStein(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		g := gen.RandomConnected(n, 4*n, 100, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.KargerSteinOnce(g, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1StoerWagner(b *testing.B) {
	run := func(name string, n, m int) {
		g := gen.RandomConnected(n, m, 100, 42)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.StoerWagner(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{256, 512, 1024} {
		run(fmt.Sprintf("n=%d", n), n, 4*n)
	}
	// The cutbench dense workload's shape (m = n²/8), which auto sends
	// to stoerwagner.
	run("dense/n=256", 256, 256*256/8)
}

// --- E2: self-speedup -----------------------------------------------------

func BenchmarkSelfSpeedup(b *testing.B) {
	g := gen.RandomConnected(1024, 4096, 100, 42)
	for _, p := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			old := runtime.GOMAXPROCS(p)
			defer runtime.GOMAXPROCS(old)
			for i := 0; i < b.N; i++ {
				if _, err := core.MinCut(g, core.Options{Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: Minimum Path batches (Lemma 9) -----------------------------------

func BenchmarkMinPathBatch(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 15} {
		parent := benchRandomTree(n, 11)
		tr, err := tree.FromParent(parent)
		if err != nil {
			b.Fatal(err)
		}
		s := minpath.New(tr, nil, nil)
		w0 := make([]int64, n)
		k := 2 * n
		ops := benchPathOps(n, k, 13)
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			var meter wd.Meter
			for i := 0; i < b.N; i++ {
				meter.Reset()
				s.RunBatch(w0, ops, nil, &meter)
			}
			b.ReportMetric(float64(meter.Work())/float64(k), "work/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/op-single")
		})
	}
}

// --- E4: decomposition (Lemma 7) -------------------------------------------

func BenchmarkDecompose(b *testing.B) {
	shapes := map[string][]int32{
		"random": benchRandomTree(1<<15, 3),
		"binary": benchBinaryTree(1 << 15),
		"path":   benchPathTree(1 << 15),
	}
	for name, parent := range shapes {
		tr, err := tree.FromParent(parent)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			phases := 0
			for i := 0; i < b.N; i++ {
				d := decomp.Decompose(tr, nil, nil)
				phases = d.NumPhases
			}
			b.ReportMetric(float64(phases), "phases")
		})
	}
}

// --- E5: constrained cut (Lemma 13) ----------------------------------------

func BenchmarkTwoRespect(b *testing.B) {
	n := 512
	for _, m := range []int{2048, 8192} {
		g := gen.RandomConnected(n, m, 50, 5)
		parent := gen.SpanningTreeParent(g, 6)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var meter wd.Meter
			for i := 0; i < b.N; i++ {
				meter.Reset()
				if _, err := respect.Scan(g, parent, nil, &meter); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(meter.Work())/float64(m), "work/edge")
		})
	}
}

// --- E6: packing (Lemma 1) ---------------------------------------------------

func BenchmarkPacking(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g := gen.RandomConnected(n, 4*n, 50, 9)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			trees := 0
			for i := 0; i < b.N; i++ {
				res, err := packing.SampleTrees(g, packing.Options{Seed: int64(i)}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				trees = len(res.Trees)
			}
			b.ReportMetric(float64(trees), "trees")
		})
	}
}

// --- E7: cache misses (Theorem 14) -------------------------------------------

func BenchmarkCacheMisses(b *testing.B) {
	n, k := 1<<13, 1<<13
	w0 := make([]int64, n)
	ops := benchPrefixOps(n, k, 5)
	for _, impl := range []string{"one-by-one", "sweep"} {
		b.Run(impl, func(b *testing.B) {
			b.ReportAllocs()
			var misses int64
			for i := 0; i < b.N; i++ {
				sim := cache.NewSim(128, 1024)
				if impl == "sweep" {
					cache.TracedSweep(w0, ops, sim)
				} else {
					cache.TracedOneByOne(w0, ops, sim)
				}
				misses = sim.Misses()
			}
			b.ReportMetric(float64(misses)/float64(k), "misses/op")
		})
	}
}

// --- E9: merge+broadcast vs binary search -------------------------------------

func BenchmarkQueryMergeVsBinarySearch(b *testing.B) {
	n, k := 1<<14, 1<<16
	w0 := make([]int64, n)
	ops := benchPrefixOps(n, k, 3)
	b.Run("merge-broadcast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			minprefix.RunBatch(w0, ops, nil, nil)
		}
	})
	b.Run("binary-search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			minprefix.RunBatchBinarySearch(w0, ops, nil, nil)
		}
	})
}

// --- E10: list ranking engines --------------------------------------------------

func BenchmarkBoughFinding(b *testing.B) {
	n := 1 << 19
	next := make([]int32, n)
	for i := 0; i < n-1; i++ {
		next[i] = int32(i + 1)
	}
	next[n-1] = listrank.Nil
	b.Run("pointer-jumping", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			listrank.Rank(next, nil, nil)
		}
	})
	b.Run("random-mate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			listrank.RankRandomMate(next, int64(i), nil, nil)
		}
	})
}

// --- helpers ---

func benchRandomTree(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	parent := make([]int32, n)
	parent[perm[0]] = tree.None
	for i := 1; i < n; i++ {
		parent[perm[i]] = int32(perm[rng.Intn(i)])
	}
	return parent
}

func benchBinaryTree(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32((i - 1) / 2)
	}
	return parent
}

func benchPathTree(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	return parent
}

func benchPathOps(n, k int, seed int64) []minpath.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]minpath.Op, k)
	for i := range ops {
		v := int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			ops[i] = minpath.MinOp(v)
		} else {
			ops[i] = minpath.AddOp(v, int64(rng.Intn(21)-10))
		}
	}
	return ops
}

func benchPrefixOps(n, k int, seed int64) []minprefix.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]minprefix.Op, k)
	for i := range ops {
		leaf := int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			ops[i] = minprefix.MinOp(leaf)
		} else {
			ops[i] = minprefix.AddOp(leaf, int64(rng.Intn(9)-4))
		}
	}
	return ops
}
