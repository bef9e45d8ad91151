package abscan

import (
	"context"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/trace"
)

var benchFinding Finding

// BenchmarkScan times one tree's scan on the sparse benchmark workload's
// graph shape (n=520, m=2n, weights ≤100) on a width-1 pool.
func BenchmarkScan(b *testing.B) {
	g := gen.RandomConnected(520, 1040, 100, 1)
	parent := gen.SpanningTreeParent(g, 2)
	pool := par.NewPool(1)
	defer pool.Close()
	adj := g.BuildAdjOn(pool)
	deg := g.WeightedDegrees()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Scan(context.Background(), g, adj, deg, parent, false, pool, nil, nil, trace.SpanRef{})
		if err != nil {
			b.Fatal(err)
		}
		benchFinding = f
	}
}
