package parcut

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/graph/gen"
)

// solveResultGolden and solveMeterGolden are the FNV-1a digests
// TestSolveGolden computes at each width. The result digest moves only if
// some whole solve returns something new: a value, a tree count or a
// partition. The meter digest moves only if some solve's metered Work or
// Depth does.
const (
	solveResultGolden = uint64(0xe73e0f21415e2e87)
	solveMeterGolden  = uint64(0x8b88bb71f25baa25)
)

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
// on every golden graph it digests the Result's Value, TreesScanned and
// InCut into one digest and its Work and Depth into another, with a
// partition and stats requested, on executors of width 1 and 2; each
// width must reproduce solveResultGolden and solveMeterGolden. The kernel
// goldens pin one layer each, so a change anywhere in a solve (packing,
// rooting, scan, witness or the meter) that claims identical results must
// leave the result digest unchanged, and one that moves either digest
// re-records it and says why.
func TestSolveGolden(t *testing.T) {
	t.Parallel()
	graphs := goldenGraphs(t)
	for _, w := range []int{1, 2} {
		ex := NewExecutor(w)
		result, meter := fnv.New64a(), fnv.New64a()
		for _, name := range Engines() {
			for gi, g := range graphs {
				r, err := MinCut(g, Options{Engine: name, Seed: int64(gi), WantPartition: true, CollectStats: true, Executor: ex})
				if err != nil {
					t.Fatalf("%s on graph %d: %v", name, gi, err)
				}
				var b [16]byte
				binary.LittleEndian.PutUint64(b[0:], uint64(r.Value))
				binary.LittleEndian.PutUint64(b[8:], uint64(r.TreesScanned))
				result.Write(b[:])
				side := make([]byte, len(r.InCut))
				for v, in := range r.InCut {
					if in {
						side[v] = 1
					}
				}
				result.Write(side)
				binary.LittleEndian.PutUint64(b[0:], uint64(r.Work))
				binary.LittleEndian.PutUint64(b[8:], uint64(r.Depth))
				meter.Write(b[:])
			}
		}
		ex.Close()
		if got := result.Sum64(); got != solveResultGolden {
			t.Errorf("width %d: result digest of %d engines × %d graphs = %#x, want %#x", w, len(Engines()), len(graphs), got, solveResultGolden)
		}
		if got := meter.Sum64(); got != solveMeterGolden {
			t.Errorf("width %d: meter digest of %d engines × %d graphs = %#x, want %#x", w, len(Engines()), len(graphs), got, solveMeterGolden)
		}
	}
}
