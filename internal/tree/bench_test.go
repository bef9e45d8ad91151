package tree

import (
	"fmt"
	"testing"

	"repro/internal/par"
)

// BenchmarkRootEdgeList roots path and random trees with n=1024, the ring
// workload's tree size, on width-1 and width-2 pools.
func BenchmarkRootEdgeList(b *testing.B) {
	const n = 1024
	for _, shape := range []string{"path", "random"} {
		parent := pathParent(n)
		if shape == "random" {
			parent = randomParent(n, 1)
		}
		edges, root := unrooted(parent)
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/width=%d", shape, width), func(b *testing.B) {
				p := par.NewPool(width)
				defer p.Close()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := RootEdgeList(n, edges, root, p, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
