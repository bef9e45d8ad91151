package respect

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/lca"
	"repro/internal/tree"
)

// bruteForce enumerates every cut that crosses at most two edges of the
// tree: all v↓, all unions of incomparable v↓ ∪ u↓, and all differences
// u↓ − v↓ for v below u. It is the oracle for Lemma 13. The testing.T is
// optional (property tests pass nil and rely on the panic on bad input).
func bruteForce(t *testing.T, g *graph.Graph, parent []int32) int64 {
	tr, err := tree.FromParent(parent)
	if err != nil {
		panic(err)
	}
	n := g.N()
	best := int64(1)<<62 - 1
	inCut := make([]bool, n)
	eval := func() {
		if v := g.CutValue(inCut); v < best {
			best = v
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if v == tr.Root {
			continue
		}
		for o := int32(0); o < int32(n); o++ {
			inCut[o] = tr.IsAncestor(v, o)
		}
		eval()
		for u := int32(0); u < int32(n); u++ {
			if u == tr.Root || u == v {
				continue
			}
			switch {
			case tr.IsAncestor(u, v): // difference u↓ − v↓
				for o := int32(0); o < int32(n); o++ {
					inCut[o] = tr.IsAncestor(u, o) && !tr.IsAncestor(v, o)
				}
				eval()
			case tr.IsAncestor(v, u): // handled symmetrically when roles swap
			default: // incomparable union
				for o := int32(0); o < int32(n); o++ {
					inCut[o] = tr.IsAncestor(v, o) || tr.IsAncestor(u, o)
				}
				eval()
			}
		}
	}
	return best
}

func randomParent(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	parent := make([]int32, n)
	parent[perm[0]] = tree.None
	for i := 1; i < n; i++ {
		parent[perm[i]] = int32(perm[rng.Intn(i)])
	}
	return parent
}

// spanningParent extracts a random spanning tree of g as a parent array.
func spanningParent(t *testing.T, g *graph.Graph, seed int64) []int32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	adj := g.BuildAdj()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = tree.None
	}
	seen := make([]bool, n)
	order := rng.Perm(n)
	root := int32(order[0])
	seen[root] = true
	// Random-order DFS.
	stack := []int32{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		deg := adj.Off[v+1] - adj.Off[v]
		for _, di := range rng.Perm(int(deg)) {
			u := adj.Nbr[adj.Off[v]+int32(di)]
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				stack = append(stack, u)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			t.Fatal("graph not connected")
		}
	}
	return parent
}

func TestCutValuesAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 3 + int(seed*17)%40
		g := gen.RandomConnected(n, 3*n, 12, seed)
		parent := spanningParent(t, g, seed+10)
		tr, err := tree.FromParent(parent)
		if err != nil {
			t.Fatal(err)
		}
		l := lca.New(tr, nil, nil)
		c, rhoDown := CutValues(g, tr, l, nil, nil)
		inCut := make([]bool, n)
		for v := int32(0); v < int32(n); v++ {
			for o := int32(0); o < int32(n); o++ {
				inCut[o] = tr.IsAncestor(v, o)
			}
			if got := g.CutValue(inCut); got != c[v] {
				t.Fatalf("seed %d: C(%d↓)=%d want %d", seed, v, c[v], got)
			}
			// ρ↓: weight of edges with both endpoints in v↓.
			var want int64
			for _, e := range g.Edges() {
				if e.U != e.V && inCut[e.U] && inCut[e.V] {
					want += e.W
				}
			}
			if rhoDown[v] != want {
				t.Fatalf("seed %d: rho↓(%d)=%d want %d", seed, v, rhoDown[v], want)
			}
		}
	}
}

// TestFigure2ConstrainedCut reproduces the situation of paper Figure 2: a
// cut that crosses two tree edges beats every 1-respecting cut.
func TestFigure2ConstrainedCut(t *testing.T) {
	// Path tree 0-1-2-3-4 rooted at 0 embedded in a graph where the best
	// cut takes {1,2} out of the middle: tree edges (0,1) and (2,3) are
	// cut. Heavy edges elsewhere make every single-tree-edge cut larger.
	g := graph.New(5)
	must := func(u, v int, w int64) {
		t.Helper()
		if err := g.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	must(0, 1, 1) // tree edge, light
	must(1, 2, 9) // tree edge, heavy (inside the cut side)
	must(2, 3, 1) // tree edge, light
	must(3, 4, 9) // tree edge
	must(0, 4, 9) // heavy back edge keeps 1-respecting cuts big
	parent := []int32{tree.None, 0, 1, 2, 3}
	want := bruteForce(t, g, parent)
	if want != 2 { // {1,2} vs rest: edges (0,1) and (2,3)
		t.Fatalf("brute force says %d, test premise broken", want)
	}
	res, err := TwoRespect(g, parent, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("TwoRespect=%d want 2", res.Value)
	}
	if got := g.CutValue(res.InCut); got != 2 {
		t.Fatalf("witness value %d want 2", got)
	}
}

func TestTwoRespectMatchesBruteForceRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		n := 2 + int(seed*13)%26
		mm := n - 1 + int(seed*7)%(3*n)
		g := gen.RandomConnected(n, mm, 10, seed)
		parent := spanningParent(t, g, seed+100)
		want := bruteForce(t, g, parent)
		res, err := TwoRespect(g, parent, true, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != want {
			t.Fatalf("seed %d (n=%d m=%d): TwoRespect=%d brute=%d", seed, n, mm, res.Value, want)
		}
		if got := g.CutValue(res.InCut); got != want {
			t.Fatalf("seed %d: witness=%d want %d", seed, got, want)
		}
	}
}

// TestTwoRespectArbitraryTrees: the search is well-defined for any rooted
// tree over the vertices, not only subgraph spanning trees.
func TestTwoRespectArbitraryTrees(t *testing.T) {
	for seed := int64(50); seed < 62; seed++ {
		n := 2 + int(seed*11)%22
		g := gen.RandomConnected(n, 2*n, 8, seed)
		parent := randomParent(n, seed)
		want := bruteForce(t, g, parent)
		res, err := TwoRespect(g, parent, true, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != want {
			t.Fatalf("seed %d: got %d want %d", seed, res.Value, want)
		}
		if got := g.CutValue(res.InCut); got != want {
			t.Fatalf("seed %d: witness=%d want %d", seed, got, want)
		}
	}
}

// TestFigure12IncomparableCase: a minimum cut that is the union of two
// incomparable descendant sets, as in Figure 12.
func TestFigure12IncomparableCase(t *testing.T) {
	//        0
	//       / \
	//      1   2
	//      |   |
	//      3   4
	// Cut = {3} ∪ {4}: tree edges (1,3) and (2,4) cut.
	g := graph.New(5)
	must := func(u, v int, w int64) {
		t.Helper()
		if err := g.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	must(0, 1, 10)
	must(0, 2, 10)
	must(1, 3, 1) // light tree edges isolate {3,4}
	must(2, 4, 1)
	must(3, 4, 20) // heavy edge binds 3 and 4 together
	parent := []int32{tree.None, 0, 0, 1, 2}
	want := bruteForce(t, g, parent)
	if want != 2 {
		t.Fatalf("premise: brute=%d", want)
	}
	res, err := TwoRespect(g, parent, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("got %d want 2", res.Value)
	}
	// The witness must be exactly {3,4} (or its complement).
	if res.InCut[3] != res.InCut[4] || res.InCut[3] == res.InCut[0] {
		t.Fatalf("witness %v does not isolate {3,4}", res.InCut)
	}
}

// TestFigure15DescendantCase: a minimum cut that is the difference of two
// nested descendant sets (Appendix A).
func TestFigure15DescendantCase(t *testing.T) {
	// Path tree 0-1-2-3 with the middle {1,2} as the best cut... but make
	// it so only the difference shape finds it: S = 1↓ − 3↓ = {1,2}.
	g := graph.New(4)
	must := func(u, v int, w int64) {
		t.Helper()
		if err := g.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	must(0, 1, 2) // tree
	must(1, 2, 30)
	must(2, 3, 2)
	must(0, 3, 5) // binds the endpoints
	parent := []int32{tree.None, 0, 1, 2}
	want := bruteForce(t, g, parent) // {1,2}: edges (0,1)+(2,3) = 4
	if want != 4 {
		t.Fatalf("premise: brute=%d", want)
	}
	res, err := TwoRespect(g, parent, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Fatalf("got %d want 4", res.Value)
	}
	if res.InCut[1] != res.InCut[2] || res.InCut[1] == res.InCut[0] || res.InCut[3] == res.InCut[1] {
		t.Fatalf("witness %v does not isolate {1,2}", res.InCut)
	}
}

// TestFigure13VisitTimes pins the bough traversal schedule.
func TestFigure13VisitTimes(t *testing.T) {
	paths := [][]int32{{2, 1, 0}, {3}, {6, 5, 4}}
	t1, t2 := visitTimes(7, paths)
	// First bough (top 2, leaf 0): up 0,1,2 from the leaf; down 3,4,5.
	if t1[0] != 0 || t1[1] != 1 || t1[2] != 2 {
		t.Fatalf("up times: %v %v %v", t1[0], t1[1], t1[2])
	}
	if t2[2] != 3 || t2[1] != 4 || t2[0] != 5 {
		t.Fatalf("down times: %v %v %v", t2[2], t2[1], t2[0])
	}
	// Second bough occupies 6,7; third 8..13.
	if t1[3] != 6 || t2[3] != 7 {
		t.Fatalf("singleton bough times %d %d", t1[3], t2[3])
	}
	if t1[4] != 8 || t1[6] != 10 || t2[4] != 13 {
		t.Fatalf("third bough times %d %d %d", t1[4], t1[6], t2[4])
	}
}

func TestTwoRespectParallelEdgesAndLoops(t *testing.T) {
	g := graph.New(4)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 3}, {0, 1, 2}, {1, 2, 1}, {2, 3, 4}, {3, 0, 2}, {2, 2, 50}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	parent := []int32{tree.None, 0, 1, 2}
	want := bruteForce(t, g, parent)
	res, err := TwoRespect(g, parent, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("got %d want %d", res.Value, want)
	}
}

func TestTwoRespectTwoVertices(t *testing.T) {
	g := graph.New(2)
	if err := g.AddEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	res, err := TwoRespect(g, []int32{tree.None, 0}, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 10 {
		t.Fatalf("got %d want 10", res.Value)
	}
}

// TestTwoRespectStar: with the star itself as the tree, every cut of a
// star graph crosses at least one tree edge; the best one crossing at
// most two is the singleton {2}, weight 4, which is also the global
// minimum.
func TestTwoRespectStar(t *testing.T) {
	g := graph.New(4)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 5}, {0, 2, 3}, {0, 3, 4}, {1, 2, 1}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	parent := []int32{tree.None, 0, 0, 0}
	res, err := TwoRespect(g, parent, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := baseline.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	if constrained := bruteForce(t, g, parent); want != 4 || constrained != 4 || res.Value != 4 {
		t.Fatalf("TwoRespect=%d constrained brute=%d global brute=%d, want all 4", res.Value, constrained, want)
	}
	if got := g.CutValue(res.InCut); got != res.Value {
		t.Fatalf("witness %d claimed %d", got, res.Value)
	}
}

func TestScanAndWitnessSplit(t *testing.T) {
	g := gen.RandomConnected(20, 50, 9, 77)
	parent := spanningParent(t, g, 78)
	f, err := Scan(g, parent, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inCut, err := Witness(g, parent, f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CutValue(inCut); got != f.Value {
		t.Fatalf("witness %d != scan %d", got, f.Value)
	}
}
