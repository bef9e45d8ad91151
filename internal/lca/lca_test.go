package lca

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

func naiveLCA(t *tree.Tree, u, v int32) int32 {
	// Climb the deeper vertex until depths match, then climb together.
	for t.Depth[u] > t.Depth[v] {
		u = t.Parent[u]
	}
	for t.Depth[v] > t.Depth[u] {
		v = t.Parent[v]
	}
	for u != v {
		u, v = t.Parent[u], t.Parent[v]
	}
	return u
}

func randomTree(n int, seed int64) *tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	parent := make([]int32, n)
	parent[perm[0]] = tree.None
	for i := 1; i < n; i++ {
		parent[perm[i]] = int32(perm[rng.Intn(i)])
	}
	t, err := tree.FromParent(parent, nil)
	if err != nil {
		panic(err)
	}
	return t
}

func TestLCASmall(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//   / \    \
	//  3   4    5
	parent := []int32{tree.None, 0, 0, 1, 1, 2}
	tr, err := tree.FromParent(parent, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := New(tr, nil, nil)
	cases := [][3]int32{
		{3, 4, 1}, {3, 5, 0}, {1, 4, 1}, {0, 5, 0}, {5, 5, 5}, {2, 5, 2}, {4, 2, 0},
	}
	for _, c := range cases {
		if got := l.Query(c[0], c[1]); got != c[2] {
			t.Errorf("LCA(%d,%d)=%d want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestLCAMatchesNaiveOnRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 2 + int(seed*211)%800
		tr := randomTree(n, seed)
		l := New(tr, nil, nil)
		rng := rand.New(rand.NewSource(seed + 50))
		for q := 0; q < 500; q++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			want := naiveLCA(tr, u, v)
			if got := l.Query(u, v); got != want {
				t.Fatalf("seed %d: LCA(%d,%d)=%d want %d", seed, u, v, got, want)
			}
		}
	}
}

func TestLCAOnPath(t *testing.T) {
	n := 300
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	tr, _ := tree.FromParent(parent, nil)
	l := New(tr, nil, nil)
	for _, c := range [][3]int32{{0, 299, 0}, {100, 200, 100}, {250, 250, 250}} {
		if got := l.Query(c[0], c[1]); got != c[2] {
			t.Errorf("path LCA(%d,%d)=%d want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestSingleVertex(t *testing.T) {
	tr, _ := tree.FromParent([]int32{tree.None}, nil)
	l := New(tr, nil, nil)
	if got := l.Query(0, 0); got != 0 {
		t.Fatalf("LCA(0,0)=%d", got)
	}
}
