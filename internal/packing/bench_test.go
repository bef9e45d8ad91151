package packing

import (
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/par"
)

// BenchmarkSampleTrees times one whole packing (cut estimate, skeleton
// sampling, greedy rounds, tree choice) on a width-1 pool, for the graph
// shapes of cmd/cutbench's ring and sparse workloads. Iterations cycle
// through eight packing seeds on one graph.
func BenchmarkSampleTrees(b *testing.B) {
	for _, bc := range []struct{ name, spec string }{
		{"ring", "cycle:n=1024,w=50"},
		{"sparse", "random:n=520,m=1040,w=100"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, _, err := gen.FromSpec(bc.spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			pool := par.NewPool(1)
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SampleTrees(g, Options{Seed: int64(i%8) + 1}, pool, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
