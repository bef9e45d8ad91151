package parcut

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/graph/gen"
)

// solveGolden is the FNV-1a digest TestSolveGolden computes at each
// width. It moves only if some whole solve does: a new value, a new tree
// count, a different returned partition, or a different metered cost.
const solveGolden = uint64(0x09bee6841b27eba9)

// goldenGraphs are small generator graphs of the shapes the solver
// serves: the four cutbench workloads (sparse, ring, dense and the
// service's uploads) at small n, a planted cut, a dumbbell, and two
// multigraphs with self-loops and parallel copies.
func goldenGraphs(t *testing.T) []*Graph {
	t.Helper()
	var out []*Graph
	for i, spec := range []string{
		"random:n=120,m=240,w=100",
		"cycle:n=128,w=50",
		"random:n=48,m=288,w=100",
		"random:n=100,m=400,w=100",
		"planted:na=30,nb=26,k=4",
		"dumbbell:n=12,bridge=3",
		"random:n=40,m=90,w=20",
		"random:n=70,m=200,w=20",
	} {
		g, _, err := gen.FromSpec(spec, int64(1+i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &Graph{g: g})
	}
	rng := rand.New(rand.NewSource(3))
	for _, G := range out[len(out)-2:] {
		n := G.N()
		for k := 0; k < n/3; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			e := G.g.Edge(rng.Intn(G.M()))
			for _, p := range [][2]int{{u, u}, {int(e.U), int(e.V)}, {u, v}} {
				if err := G.AddEdge(p[0], p[1], 1+rng.Int63n(20)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestSolveGolden pins whole solves bit for bit. For every served engine
// on every golden graph it digests the Result's Value, TreesScanned,
// InCut, Work and Depth, with a partition and stats requested, on
// executors of width 1 and 2; each width must reproduce solveGolden. The
// kernel goldens pin one layer each, so a change anywhere in a solve
// (packing, rooting, scan, witness or the meter) that claims identical
// results must leave this digest unchanged, and one that moves it
// re-records it and says why.
func TestSolveGolden(t *testing.T) {
	t.Parallel()
	graphs := goldenGraphs(t)
	for _, w := range []int{1, 2} {
		ex := NewExecutor(w)
		h := fnv.New64a()
		for _, name := range Engines() {
			for gi, g := range graphs {
				r, err := MinCut(g, Options{Engine: name, Seed: int64(gi), WantPartition: true, CollectStats: true, Executor: ex})
				if err != nil {
					t.Fatalf("%s on graph %d: %v", name, gi, err)
				}
				var b [32]byte
				binary.LittleEndian.PutUint64(b[0:], uint64(r.Value))
				binary.LittleEndian.PutUint64(b[8:], uint64(r.TreesScanned))
				binary.LittleEndian.PutUint64(b[16:], uint64(r.Work))
				binary.LittleEndian.PutUint64(b[24:], uint64(r.Depth))
				h.Write(b[:])
				side := make([]byte, len(r.InCut))
				for v, in := range r.InCut {
					if in {
						side[v] = 1
					}
				}
				h.Write(side)
			}
		}
		ex.Close()
		if got := h.Sum64(); got != solveGolden {
			t.Errorf("width %d: digest of %d engines × %d graphs = %#x, want %#x", w, len(Engines()), len(graphs), got, solveGolden)
		}
	}
}
