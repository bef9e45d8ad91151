package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/listrank"
	"repro/internal/par"
	"repro/internal/wd"
)

// randomParent builds a random parent array: vertex i > 0 attaches to a
// uniform earlier vertex under a random relabeling.
func randomParent(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	parent := make([]int32, n)
	parent[perm[0]] = None
	for i := 1; i < n; i++ {
		parent[perm[i]] = int32(perm[rng.Intn(i)])
	}
	return parent
}

// pathParent builds a path 0 <- 1 <- ... <- n-1 rooted at 0.
func pathParent(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = None
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	return parent
}

// starParent builds a star: every vertex hangs off root 0.
func starParent(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = None
	return parent
}

func TestFromParentValidation(t *testing.T) {
	cases := [][]int32{
		{},              // empty
		{0},             // self-parent (no root)
		{None, None},    // two roots
		{1, 0},          // cycle, no root
		{None, 5},       // out of range
		{None, 2, 1},    // 2-cycle off the root
		{None, 0, 3, 2}, // 2-cycle off a rooted path
	}
	for i, parent := range cases {
		if _, err := FromParent(parent, nil); err == nil {
			t.Errorf("case %d: invalid parent array accepted", i)
		}
	}
}

func TestSmallTreeLayout(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//   / \    \
	//  3   4    5
	parent := []int32{None, 0, 0, 1, 1, 2}
	tr, err := FromParent(parent, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 0 {
		t.Fatalf("root = %d", tr.Root)
	}
	wantDepth := []int32{0, 1, 1, 2, 2, 2}
	for v, d := range wantDepth {
		if tr.Depth[v] != d {
			t.Errorf("depth[%d]=%d want %d", v, tr.Depth[v], d)
		}
	}
	// Preorder with children in vertex order: 0 1 3 4 2 5.
	wantPre := []int32{0, 1, 3, 4, 2, 5}
	for i, v := range wantPre {
		if tr.Pre[i] != v {
			t.Errorf("pre[%d]=%d want %d", i, tr.Pre[i], v)
		}
	}
	// Subtree sizes via intervals.
	wantSize := []int32{6, 3, 2, 1, 1, 1}
	for v, s := range wantSize {
		if tr.Out[v]-tr.In[v] != s {
			t.Errorf("size[%d]=%d want %d", v, tr.Out[v]-tr.In[v], s)
		}
	}
	if !tr.IsAncestor(0, 5) || !tr.IsAncestor(1, 4) || !tr.IsAncestor(3, 3) {
		t.Error("ancestor relation broken")
	}
	if tr.IsAncestor(1, 5) || tr.IsAncestor(3, 4) || tr.IsAncestor(5, 0) {
		t.Error("non-ancestor reported as ancestor")
	}
}

// TestFromParentCharge: FromParent charges its meter the cost of the
// Euler-tour construction, with values recorded from a build that ran the
// tour (list ranking by pointer jumping, then prefix sums over the tour).
// The charge depends on n alone, so path, star and random trees of each
// size must all read the recorded pair; n covers both sides of several
// powers of two, where the tour's round counts step.
func TestFromParentCharge(t *testing.T) {
	recorded := []struct {
		n           int
		work, depth int64
	}{
		{1, 0, 0}, {2, 24, 11}, {3, 46, 16}, {4, 72, 20}, {5, 92, 21},
		{8, 168, 25}, {9, 190, 26}, {16, 376, 30}, {17, 400, 31},
		{100, 2992, 45}, {512, 17400, 55}, {513, 17434, 56},
		{1000, 35992, 60}, {3000, 119992, 70}, {5000, 209992, 75},
	}
	for _, c := range recorded {
		shapes := map[string][]int32{
			"path":   pathParent(c.n),
			"star":   starParent(c.n),
			"random": randomParent(c.n, int64(c.n)),
		}
		for name, parent := range shapes {
			var m wd.Meter
			if _, err := FromParent(parent, &m); err != nil {
				t.Fatalf("%s n=%d: %v", name, c.n, err)
			}
			if m.Work() != c.work || m.Depth() != c.depth {
				t.Errorf("%s n=%d: charged (%d, %d), Euler tour cost (%d, %d)",
					name, c.n, m.Work(), m.Depth(), c.work, c.depth)
			}
		}
	}
}

func TestSubtreeSum(t *testing.T) {
	parent := []int32{None, 0, 0, 1, 1, 2}
	tr, _ := FromParent(parent, nil)
	x := []int64{1, 10, 100, 1000, 10000, 100000}
	got := tr.SubtreeSum(x, nil, nil)
	want := []int64{111111, 11010, 100100, 1000, 10000, 100000}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("subtreeSum[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestSubtreeSumRandomAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n := 200 + int(seed)*31
		parent := randomParent(n, seed+100)
		tr, err := FromParent(parent, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]int64, n)
		for i := range x {
			x[i] = int64(rng.Intn(1000) - 500)
		}
		got := tr.SubtreeSum(x, nil, nil)
		// Naive: accumulate up from every vertex.
		want := make([]int64, n)
		for v := 0; v < n; v++ {
			u := int32(v)
			for u != None {
				want[u] += x[v]
				u = parent[u]
			}
		}
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("seed %d: sum[%d]=%d want %d", seed, v, got[v], want[v])
			}
		}
	}
}

// unrooted forgets a parent array's orientation: its edges, in vertex
// order, and its root.
func unrooted(parent []int32) (edges [][2]int32, root int32) {
	for v, p := range parent {
		if p == None {
			root = int32(v)
			continue
		}
		edges = append(edges, [2]int32{int32(v), p})
	}
	return edges, root
}

// widePools returns pools of width 1, 2 and 4. RootEdgeList runs no pool
// loop, so the tests on them check that its output and meter charge do
// not depend on the width of the pool whose arena it borrows.
func widePools(t *testing.T) []*par.Pool {
	var pools []*par.Pool
	for _, w := range []int{1, 2, 4} {
		p := par.NewPool(w)
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	return pools
}

// eulerTourCharge is the Euler tour's cost on a spanning tree of n
// vertices, built from its parts: two passes over the 2(n-1) arcs, what
// listrank.Rank charges to rank a list of that length, and the
// orientation pass over the vertices.
func eulerTourCharge(n int) (work, depth int64) {
	arcs := 2 * (n - 1)
	next := make([]int32, arcs)
	for i := range next {
		next[i] = int32(i + 1)
	}
	next[arcs-1] = listrank.Nil
	var m wd.Meter
	listrank.Rank(next, nil, &m)
	return m.Work() + 2*int64(arcs) + int64(n), m.Depth() + 3
}

// TestRootEdgeList roots random trees with n up to 500, and random and
// path trees with n in {600, 2000, 5000}, on the default pool and on
// widths 1, 2 and 4: every call must return the input orientation, as
// the BFS reference does, and charge the meter exactly the Euler tour's
// cost.
func TestRootEdgeList(t *testing.T) {
	type input struct {
		name   string
		parent []int32
	}
	var inputs []input
	for seed := int64(0); seed < 8; seed++ {
		n := 2 + int(seed*53)%500
		inputs = append(inputs, input{fmt.Sprintf("random seed %d", seed), randomParent(n, seed+7)})
	}
	for _, n := range []int{600, 2000, 5000} {
		inputs = append(inputs,
			input{fmt.Sprintf("random n=%d", n), randomParent(n, int64(n))},
			input{fmt.Sprintf("path n=%d", n), pathParent(n)})
	}
	pools := append([]*par.Pool{nil}, widePools(t)...)
	for _, in := range inputs {
		n := len(in.parent)
		edges, root := unrooted(in.parent)
		seq, err := RootEdgeListSeq(n, edges, root)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !slices.Equal(seq, in.parent) {
			t.Fatalf("%s: RootEdgeListSeq differs from the input", in.name)
		}
		work, depth := eulerTourCharge(n)
		for _, p := range pools {
			var m wd.Meter
			got, err := RootEdgeList(n, edges, root, p, &m)
			if err != nil {
				t.Fatalf("%s width %d: %v", in.name, p.Width(), err)
			}
			if !slices.Equal(got, in.parent) {
				t.Fatalf("%s width %d: parent array differs from the input", in.name, p.Width())
			}
			if m.Work() != work || m.Depth() != depth {
				t.Fatalf("%s width %d: charged (%d, %d), Euler tour cost (%d, %d)",
					in.name, p.Width(), m.Work(), m.Depth(), work, depth)
			}
		}
	}
}

// TestRootEdgeListRejectsNonTree: n-1 edges that do not span — a cycle
// plus an isolated vertex, a self-loop, a duplicated edge — are rejected
// by RootEdgeList (n=4 on the default pool, n=600 on widths 1, 2 and 4)
// and by the BFS reference.
func TestRootEdgeListRejectsNonTree(t *testing.T) {
	// Triangle + isolated vertex: 3 edges on 4 vertices.
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}}
	if _, err := RootEdgeList(4, edges, 0, nil, nil); err == nil {
		t.Error("cycle accepted by RootEdgeList")
	}
	if _, err := RootEdgeListSeq(4, edges, 0); err == nil {
		t.Error("cycle accepted by RootEdgeListSeq")
	}
	if _, err := RootEdgeList(4, edges[:2], 0, nil, nil); err == nil {
		t.Error("wrong edge count accepted")
	}

	const n = 600
	tree, _ := unrooted(pathParent(n)) // edge i joins i+1 to i
	bad := map[string][][2]int32{
		// The last vertex loses its edge and 0-1-2 closes a triangle.
		"cycle":     append(slices.Clone(tree[:n-2]), [2]int32{0, 2}),
		"self-loop": append(slices.Clone(tree[:n-2]), [2]int32{7, 7}),
		"duplicate": append(slices.Clone(tree[:n-2]), tree[5]),
	}
	pools := widePools(t)
	for name, edges := range bad {
		for _, p := range pools {
			if _, err := RootEdgeList(n, edges, 0, p, nil); err == nil {
				t.Errorf("%s accepted by RootEdgeList on width %d", name, p.Width())
			}
		}
		if _, err := RootEdgeListSeq(n, edges, 0); err == nil {
			t.Errorf("%s accepted by RootEdgeListSeq", name)
		}
	}
}

// TestRootEdgeListAllocsOnlyOutput: a steady-state RootEdgeList
// allocates only the parent array it returns, on widths 1, 2 and 4; the
// DFS's adjacency array and stack come from the arena.
func TestRootEdgeListAllocsOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; the output-only bound holds only in normal builds")
	}
	const n = 1024
	edges, root := unrooted(randomParent(n, 5))
	m := &wd.Meter{}
	for _, p := range widePools(t) {
		run := func() {
			if _, err := RootEdgeList(n, edges, root, p, m); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if avg := testing.AllocsPerRun(50, run); avg > 1 {
			t.Errorf("width %d: steady-state RootEdgeList: %.2f allocs/op, want 1 (the parent array)", p.Width(), avg)
		}
	}
}

func TestRootEdgeListSingleVertex(t *testing.T) {
	got, err := RootEdgeList(1, nil, 0, nil, nil)
	if err != nil || got[0] != None {
		t.Fatalf("single vertex: %v %v", got, err)
	}
}
