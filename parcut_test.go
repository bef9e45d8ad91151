package parcut

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph/gen"
)

func TestPublicMinCutQuickstart(t *testing.T) {
	g := NewGraph(4)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 3}, {1, 2, 1}, {2, 3, 4}, {3, 0, 2}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	res, err := MinCut(g, Options{Seed: 1, WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 { // cycle: two lightest edges are 1 and 2
		t.Fatalf("quickstart cut = %d, want 3", res.Value)
	}
	if got := g.CutValue(res.InCut); got != 3 {
		t.Fatalf("partition value %d", got)
	}
}

func TestPublicMinCutMatchesBaseline(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		inner := gen.RandomConnected(30, 120, 10, seed)
		g := &Graph{g: inner}
		want, _, err := baseline.StoerWagner(inner)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MinCut(g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("seed %d: %d want %d", seed, res.Value, want)
		}
	}
}

func TestPublicStats(t *testing.T) {
	g := RandomGraph(50, 200, 8, 3)
	res, err := MinCut(g, Options{Seed: 2, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Work == 0 || res.Depth == 0 || res.TreesScanned == 0 {
		t.Fatalf("stats empty: %+v", res)
	}
	res2, err := MinCut(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Work != 0 || res2.Depth != 0 {
		t.Fatal("stats reported without CollectStats")
	}
}

func TestPublicNilAndTiny(t *testing.T) {
	if _, err := MinCut(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := MinCut(NewGraph(1), Options{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := ConstrainedMinCut(nil, nil, Options{}); err == nil {
		t.Fatal("nil graph accepted by ConstrainedMinCut")
	}
}

func TestPublicGraphIO(t *testing.T) {
	g := RandomGraph(20, 60, 9, 7)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.TotalWeight() != g.TotalWeight() {
		t.Fatal("round trip mismatch")
	}
	a, err := MinCut(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinCut(g2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Fatal("round-tripped graph has different cut")
	}
}

func TestPublicConstrainedMinCut(t *testing.T) {
	g := NewGraph(5)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 1}, {1, 2, 9}, {2, 3, 1}, {3, 4, 9}, {0, 4, 9}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	parent := []int32{-1, 0, 1, 2, 3}
	res, err := ConstrainedMinCut(g, parent, Options{WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("constrained = %d want 2", res.Value)
	}
}

func TestPathAggregatorBatchAndCommit(t *testing.T) {
	// Path tree 0-1-2-3-4.
	parent := []int32{-1, 0, 1, 2, 3}
	w := []int64{10, 20, 5, 30, 40}
	p, err := NewPathAggregator(parent, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run([]PathOp{
		MinPath(4),       // min(40,30,5,20,10) = 5
		AddPath(2, +100), // weights: 110,120,105,30,40
		MinPath(4),       // min(40,30,105,120,110) = 30
		MinPath(1),       // min(120,110) = 110
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 0, 30, 110}
	for i, v := range want {
		if res[i] != v && (i != 1) {
			t.Errorf("op %d: got %d want %d", i, res[i], v)
		}
	}
	// Commit: the next batch sees the updated weights.
	if got := p.Weight(0); got != 110 {
		t.Fatalf("committed weight(0)=%d want 110", got)
	}
	res2, err := p.Run([]PathOp{MinPath(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res2[0] != 30 {
		t.Fatalf("second batch sees %d want 30", res2[0])
	}
}

func TestPathAggregatorAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 200
	parent := make([]int32, n)
	perm := rng.Perm(n)
	parent[perm[0]] = -1
	for i := 1; i < n; i++ {
		parent[perm[i]] = int32(perm[rng.Intn(i)])
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(rng.Intn(100))
	}
	p, err := NewPathAggregator(parent, w)
	if err != nil {
		t.Fatal(err)
	}
	// Naive mirror.
	naiveW := append([]int64(nil), w...)
	naiveMin := func(v int32) int64 {
		best := naiveW[v]
		for u := v; u != -1; u = parent[u] {
			if naiveW[u] < best {
				best = naiveW[u]
			}
		}
		return best
	}
	naiveAdd := func(v int32, x int64) {
		for u := v; u != -1; u = parent[u] {
			naiveW[u] += x
		}
	}
	for batch := 0; batch < 3; batch++ {
		k := 100
		ops := make([]PathOp, k)
		for i := range ops {
			v := int32(rng.Intn(n))
			if rng.Intn(2) == 0 {
				ops[i] = MinPath(v)
			} else {
				ops[i] = AddPath(v, int64(rng.Intn(21)-10))
			}
		}
		got, err := p.Run(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Query {
				if want := naiveMin(op.Vertex); got[i] != want {
					t.Fatalf("batch %d op %d: %d want %d", batch, i, got[i], want)
				}
			} else {
				naiveAdd(op.Vertex, op.X)
			}
		}
	}
}

// TestNonTreeParentsRejected: both entry points that take a parent array
// from their caller return an error on every array for 4 vertices that is
// not one rooted tree, on the default executor and on one of width 2, and
// never panic.
func TestNonTreeParentsRejected(t *testing.T) {
	g := NewGraph(4)
	for v := 0; v < 4; v++ {
		if err := g.AddEdge(v, (v+1)%4, int64(1+v)); err != nil {
			t.Fatal(err)
		}
	}
	weights := []int64{5, 6, 7, 8}
	exec := NewExecutor(2)
	defer exec.Close()
	for _, c := range []struct {
		name   string
		parent []int32
	}{
		{"cycle off the root", []int32{-1, 0, 3, 2}},
		{"cycle and no root", []int32{1, 2, 3, 0}},
		{"two roots", []int32{-1, 0, -1, 2}},
		{"parent above range", []int32{-1, 0, 9, 1}},
		{"parent below -1", []int32{-1, 0, -5, 1}},
		{"self-parent", []int32{-1, 0, 2, 2}},
		{"wrong length", []int32{-1, 0, 1}},
	} {
		for _, opt := range []Options{{}, {Executor: exec}} {
			if _, err := ConstrainedMinCut(g, c.parent, opt); err == nil {
				t.Errorf("%s: ConstrainedMinCut accepted %v", c.name, c.parent)
			}
			if _, err := NewPathAggregatorOpts(c.parent, weights, opt); err == nil {
				t.Errorf("%s: NewPathAggregator accepted %v", c.name, c.parent)
			}
		}
	}
}

func TestPathAggregatorValidation(t *testing.T) {
	if _, err := NewPathAggregator([]int32{-1, 0}, []int64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	p, err := NewPathAggregator([]int32{-1, 0}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]PathOp{MinPath(7)}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}
