package mst

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/wd"
)

func forestCost(edges []graph.Edge, cost []int64, sel []int32) int64 {
	var total int64
	for _, i := range sel {
		if cost != nil {
			total += cost[i]
		} else {
			total++
		}
	}
	return total
}

// sameEdgeSet reports whether a and b hold the same edge indices.
func sameEdgeSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[int32]bool{}
	for _, i := range a {
		in[i] = true
	}
	for _, i := range b {
		if !in[i] {
			return false
		}
	}
	return true
}

// widePools returns pools of width 1, 2 and 4. Forest runs no pool loop,
// so the tests on them check that its output and meter charge do not
// depend on the width of the pool whose arena it borrows.
func widePools(t *testing.T) []*par.Pool {
	var pools []*par.Pool
	for _, w := range []int{1, 2, 4} {
		p := par.NewPool(w)
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	return pools
}

// modelCharge is what Forest charges the meter on n vertices and m edges:
// Borůvka's model cost of ⌈log₂ n⌉ rounds.
func modelCharge(n, m int) (work, depth int64) {
	lg := wd.CeilLog2(n)
	return lg * int64(m+n), lg * (lg + 3)
}

// costShapes are the costs the Kruskal-equivalence tests draw for a graph
// with m edges: few distinct costs, so the index tie-break decides most of
// the forest; packing's loads, in [0, rounds] for n=1024; costs above the
// edge count, which Forest sorts in two digits; and costs up to the
// largest int64, half of them tied there.
var costShapes = []struct {
	name string
	draw func(rng *rand.Rand, m int) int64
}{
	{"ties", func(rng *rand.Rand, m int) int64 { return rng.Int63n(4) }},
	{"loads", func(rng *rand.Rand, m int) int64 { return rng.Int63n(74) }},
	{"above-m", func(rng *rand.Rand, m int) int64 { return int64(m) + rng.Int63n(100*int64(m)) }},
	{"top", func(rng *rand.Rand, m int) int64 {
		if rng.Intn(2) == 0 {
			return math.MaxInt64
		}
		return rng.Int63()
	}},
}

// TestForestMatchesKruskalOnRandomGraphs pins Forest to the
// comparison-sort Kruskal oracle. Small graphs run on the default pool;
// a dense graph (n=300, m=1025) and sparse ones (n=5000 and 9000, m=3n)
// run on widths 1, 2 and 4 under every cost shape. Every call must charge
// the meter exactly the model cost, whatever the pool.
func TestForestMatchesKruskalOnRandomGraphs(t *testing.T) {
	type input struct {
		n, m  int
		seed  int64
		pool  *par.Pool
		shape int // index into costShapes; -1 draws costs in [0, 1000)
	}
	var inputs []input
	for seed := int64(0); seed < 10; seed++ {
		n := 5 + int(seed*97)%300
		inputs = append(inputs, input{n: n, m: 3 * n, seed: seed, shape: -1})
	}
	pools := widePools(t)
	for shape := range costShapes {
		for i, p := range pools {
			// m=1025, about 7 edges per vertex, is the dense case; the
			// sparse pair has m=3n.
			for _, c := range []struct{ n, m int }{{300, 1025}, {5000, 15000}, {9000, 27000}} {
				inputs = append(inputs, input{n: c.n, m: c.m, seed: int64(20 + i), pool: p, shape: shape})
			}
		}
	}
	for _, in := range inputs {
		n, m := in.n, in.m
		g := gen.RandomConnected(n, m, 50, in.seed)
		rng := rand.New(rand.NewSource(in.seed + 7))
		cost := make([]int64, m)
		name := "uniform-1000"
		for i := range cost {
			if in.shape < 0 {
				cost[i] = rng.Int63n(1000)
			} else {
				cost[i] = costShapes[in.shape].draw(rng, m)
			}
		}
		if in.shape >= 0 {
			name = costShapes[in.shape].name
		}
		where := fmt.Sprintf("n=%d m=%d %s width %d", n, m, name, in.pool.Width())
		var meter wd.Meter
		selB, compB := Forest(nil, n, g.Edges(), cost, in.pool, &meter)
		selK, compK := Kruskal(n, g.Edges(), cost)
		if compB != 1 || compK != 1 {
			t.Fatalf("%s: comps %d/%d", where, compB, compK)
		}
		if len(selB) != n-1 || len(selK) != n-1 {
			t.Fatalf("%s: tree sizes %d/%d", where, len(selB), len(selK))
		}
		// With index tie-breaking the MSF is unique: compare edge sets.
		if !sameEdgeSet(selB, selK) {
			t.Fatalf("%s: Forest and Kruskal trees differ (cost %d and %d)",
				where, forestCost(g.Edges(), cost, selB), forestCost(g.Edges(), cost, selK))
		}
		if work, depth := modelCharge(n, m); meter.Work() != work || meter.Depth() != depth {
			t.Fatalf("%s: meter (%d, %d), model cost (%d, %d)", where, meter.Work(), meter.Depth(), work, depth)
		}
	}
}

// TestForestWithLabelsMatchesKruskalComponents: on a disconnected
// multigraph (isolated vertices, self-loops, parallel edges, components
// interleaved across the vertex ids), ForestWithLabels must select
// Kruskal's forest and label vertices with exactly Kruskal's partition,
// each component by one of its own vertices, at every pool width.
func TestForestWithLabelsMatchesKruskalComponents(t *testing.T) {
	const n, groups = 6000, 7
	rng := rand.New(rand.NewSource(3))
	group := make([]int, n)
	members := make([][]int, groups)
	for v := range group {
		group[v] = rng.Intn(groups + 1) // group `groups` stays isolated
		if group[v] < groups {
			members[group[v]] = append(members[group[v]], v)
		}
	}
	var edges []graph.Edge
	var cost []int64
	for len(edges) < 2*n {
		vs := members[rng.Intn(groups)]
		e := graph.Edge{U: int32(vs[rng.Intn(len(vs))]), V: int32(vs[rng.Intn(len(vs))]), W: 1}
		switch rng.Intn(50) {
		case 0:
			e.V = e.U
		case 1:
			if len(edges) > 0 {
				e = edges[len(edges)-1]
			}
		}
		edges = append(edges, e)
		cost = append(cost, int64(rng.Intn(4)))
	}
	selK, compK := Kruskal(n, edges, cost)
	root := make([]int32, n)
	for v := range root {
		root[v] = int32(v)
	}
	find := func(x int32) int32 {
		for root[x] != x {
			x = root[x]
		}
		return x
	}
	for _, i := range selK {
		root[find(edges[i].U)] = find(edges[i].V)
	}
	for _, p := range widePools(t) {
		sel, labels, comps := ForestWithLabels(n, edges, cost, p, nil)
		if comps != compK || !sameEdgeSet(sel, selK) {
			t.Fatalf("width %d: %d comps and %d edges, Kruskal %d and %d", p.Width(), comps, len(sel), compK, len(selK))
		}
		// labels and Kruskal's roots must induce the same partition.
		toRoot := map[int32]int32{}
		toLabel := map[int32]int32{}
		for v := int32(0); v < n; v++ {
			l, r := labels[v], find(v)
			if labels[l] != l {
				t.Fatalf("width %d: vertex %d labelled %d, which is labelled %d", p.Width(), v, l, labels[l])
			}
			if x, ok := toRoot[l]; ok && x != r {
				t.Fatalf("width %d: label %d spans Kruskal components %d and %d", p.Width(), l, x, r)
			}
			if x, ok := toLabel[r]; ok && x != l {
				t.Fatalf("width %d: Kruskal component %d has labels %d and %d", p.Width(), r, x, l)
			}
			toRoot[l], toLabel[r] = r, l
		}
		if len(toRoot) != compK {
			t.Fatalf("width %d: %d labels, %d components", p.Width(), len(toRoot), compK)
		}
	}
}

func TestForestUniformCosts(t *testing.T) {
	g := gen.RandomConnected(100, 400, 10, 3)
	sel, comps := Forest(nil, 100, g.Edges(), nil, nil, nil)
	if comps != 1 || len(sel) != 99 {
		t.Fatalf("comps=%d |sel|=%d", comps, len(sel))
	}
}

func TestForestDisconnected(t *testing.T) {
	g := gen.Disconnected(20, 30, 5)
	sel, comps := Forest(nil, g.N(), g.Edges(), nil, nil, nil)
	if comps != 2 {
		t.Fatalf("comps=%d want 2", comps)
	}
	if len(sel) != g.N()-2 {
		t.Fatalf("|sel|=%d want %d", len(sel), g.N()-2)
	}
	if got := Components(g.N(), g.Edges(), nil, nil); got != 2 {
		t.Fatalf("Components=%d", got)
	}
}

func TestForestParallelEdgesAndLoops(t *testing.T) {
	g := graph.New(3)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 5}, {0, 1, 2}, {1, 1, 1}, {1, 2, 9}, {1, 2, 9}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	cost := []int64{5, 2, 1, 9, 9}
	sel, comps := Forest(nil, 3, g.Edges(), cost, nil, nil)
	if comps != 1 || len(sel) != 2 {
		t.Fatalf("comps=%d sel=%v", comps, sel)
	}
	want := map[int32]bool{1: true, 3: true} // cheaper parallel edge; first of the tied pair
	for _, i := range sel {
		if !want[i] {
			t.Fatalf("selected %v want edges {1,3}", sel)
		}
	}
}

func TestForestEmptyAndSingle(t *testing.T) {
	if sel, comps := Forest(nil, 0, nil, nil, nil, nil); len(sel) != 0 || comps != 0 {
		t.Fatal("empty graph")
	}
	if sel, comps := Forest(nil, 1, nil, nil, nil, nil); len(sel) != 0 || comps != 1 {
		t.Fatal("single vertex")
	}
	if sel, comps := Forest(nil, 5, nil, nil, nil, nil); len(sel) != 0 || comps != 5 {
		t.Fatal("isolated vertices")
	}
}

func TestForestRespectsLoadOrdering(t *testing.T) {
	// Square with a diagonal: loads force specific tree choices, the way
	// the packing uses repeated MSTs.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	load := []int64{0, 0, 0, 0, 0}
	counts := map[int32]int{}
	for round := 0; round < 10; round++ {
		sel, comps := Forest(nil, 4, g.Edges(), load, nil, nil)
		if comps != 1 || len(sel) != 3 {
			t.Fatalf("round %d: comps=%d sel=%v", round, comps, sel)
		}
		for _, i := range sel {
			load[i]++
			counts[i]++
		}
	}
	// All five edges should participate across rounds: greedy packing
	// spreads load.
	for i := int32(0); i < 5; i++ {
		if counts[i] == 0 {
			t.Fatalf("edge %d never used: %v", i, counts)
		}
	}
}
