package abscan

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/tree"
)

var benchFinding Finding

// packedTrees returns the graph of spec (seed 1) and the trees the
// solver scans on it: its packed trees (packing seed 2), rooted at 0 as
// core roots them, built on a width-1 pool.
func packedTrees(tb testing.TB, spec string) (*graph.Graph, [][]int32) {
	tb.Helper()
	g, _, err := gen.FromSpec(spec, 1)
	if err != nil {
		tb.Fatal(err)
	}
	pool := par.NewPool(1)
	defer pool.Close()
	pk, err := packing.SampleTrees(g, packing.Options{Seed: 2}, pool, nil)
	if err != nil {
		tb.Fatal(err)
	}
	parents := make([][]int32, len(pk.Trees))
	for i, tr := range pk.Trees {
		edges := make([][2]int32, len(tr))
		for j, ei := range tr {
			e := g.Edge(int(ei))
			edges[j] = [2]int32{e.U, e.V}
		}
		if parents[i], err = tree.RootEdgeList(g.N(), edges, 0, pool, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return g, parents
}

// BenchmarkScan times the scans of the trees the solver scans: the
// packed trees of one graph of a benchmark workload's shape, on a
// width-1 pool. sparse is the sparse workload's random graph (n=520,
// m=2n, weights ≤100) and sparse4096 a larger one of the same kind
// (n=4096, m=4n); ring is the ring workload's 1024-cycle, whose every
// packed tree is a path: one or two heavy paths whose updates the clip
// removes but for the non-tree edge's few. Packing and rooting run
// before the timer; one op scans every tree once, and ns/tree divides
// the op's time by the tree count.
func BenchmarkScan(b *testing.B) {
	for _, c := range []struct{ name, spec string }{
		{"sparse", "random:n=520,m=1040,w=100"},
		{"sparse4096", "random:n=4096,m=16384,w=100"},
		{"ring", "cycle:n=1024,w=50"},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, parents := packedTrees(b, c.spec)
			pool := par.NewPool(1)
			defer pool.Close()
			adj := g.BuildAdjOn(pool)
			deg := g.WeightedDegrees()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, parent := range parents {
					f, err := Scan(context.Background(), g, adj, deg, parent, false, pool, nil, nil, trace.SpanRef{})
					if err != nil {
						b.Fatal(err)
					}
					benchFinding = f
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(parents)), "ns/tree")
		})
	}
}
