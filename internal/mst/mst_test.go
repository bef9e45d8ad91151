package mst

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
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

// widePools returns pools of width 1, 2 and 4 whose loops fork at the
// smallest cutoff, so graphs of a few thousand vertices run every Forest
// loop body on several lanes at once.
func widePools(t *testing.T) []*par.Pool {
	var pools []*par.Pool
	for _, w := range []int{1, 2, 4} {
		p := par.NewPool(w)
		p.SetTuning(par.Tuning{ForGrain: par.MinCutoff})
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	return pools
}

func TestForestMatchesKruskalOnRandomGraphs(t *testing.T) {
	type input struct {
		n        int
		seed     int64
		maxCost  int
		pool     *par.Pool
		poolName string
	}
	var inputs []input
	for seed := int64(0); seed < 10; seed++ {
		inputs = append(inputs, input{n: 5 + int(seed*97)%300, seed: seed, maxCost: 1000, poolName: "default"})
	}
	// Costs in [0, 4) leave most edges tied, so the index tie-break
	// decides the forest.
	for i, p := range widePools(t) {
		for _, n := range []int{5000, 9000} {
			inputs = append(inputs, input{n: n, seed: int64(20 + i), maxCost: 4, pool: p, poolName: fmt.Sprintf("width %d", p.Width())})
		}
	}
	for _, in := range inputs {
		n, seed := in.n, in.seed
		g := gen.RandomConnected(n, 3*n, 50, seed)
		rng := rand.New(rand.NewSource(seed + 7))
		cost := make([]int64, g.M())
		for i := range cost {
			cost[i] = int64(rng.Intn(in.maxCost))
		}
		selB, compB := Forest(n, g.Edges(), cost, in.pool, nil)
		selK, compK := Kruskal(n, g.Edges(), cost)
		if compB != 1 || compK != 1 {
			t.Fatalf("n=%d seed %d %s: comps %d/%d", n, seed, in.poolName, compB, compK)
		}
		if len(selB) != n-1 || len(selK) != n-1 {
			t.Fatalf("n=%d seed %d %s: tree sizes %d/%d", n, seed, in.poolName, len(selB), len(selK))
		}
		// With index tie-breaking the MSF is unique: compare edge sets.
		if !sameEdgeSet(selB, selK) {
			t.Fatalf("n=%d seed %d %s: Boruvka and Kruskal trees differ (cost B=%d K=%d)",
				n, seed, in.poolName, forestCost(g.Edges(), cost, selB), forestCost(g.Edges(), cost, selK))
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
	sel, comps := Forest(100, g.Edges(), nil, nil, nil)
	if comps != 1 || len(sel) != 99 {
		t.Fatalf("comps=%d |sel|=%d", comps, len(sel))
	}
}

func TestForestDisconnected(t *testing.T) {
	g := gen.Disconnected(20, 30, 5)
	sel, comps := Forest(g.N(), g.Edges(), nil, nil, nil)
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
	sel, comps := Forest(3, g.Edges(), cost, nil, nil)
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
	if sel, comps := Forest(0, nil, nil, nil, nil); len(sel) != 0 || comps != 0 {
		t.Fatal("empty graph")
	}
	if sel, comps := Forest(1, nil, nil, nil, nil); len(sel) != 0 || comps != 1 {
		t.Fatal("single vertex")
	}
	if sel, comps := Forest(5, nil, nil, nil, nil); len(sel) != 0 || comps != 5 {
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
		sel, comps := Forest(4, g.Edges(), load, nil, nil)
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
