// Package tree provides rooted trees with the Euler-tour layout the
// paper's algorithms traverse instead of the input graph (§1 "spanning
// trees determine the order in which edges are accessed"): children in CSR
// form, depths, preorder numbers and subtree intervals, subtree sums, and
// ancestor tests. FromParent builds a Tree with one DFS, and RootEdgeList
// orients an unrooted spanning tree with another; each charges its meter
// the cost of the paper's parallel Euler-tour construction (§3.3, [1]).
package tree

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/wd"
)

// None marks "no vertex" (the root's parent).
const None = int32(-1)

// Tree is a rooted tree on vertices 0..n-1.
type Tree struct {
	Parent []int32 // Parent[Root] == None
	Root   int32

	// Children of v are Child[ChildOff[v]:ChildOff[v+1]].
	ChildOff []int32
	Child    []int32

	Depth []int32
	// Preorder: vertex v occupies position In[v]; subtree(v) is the
	// interval [In[v], Out[v]) of preorder positions; Pre[i] is the vertex
	// at position i.
	In, Out []int32
	Pre     []int32
}

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.Parent) }

// NumChildren returns the number of children of v.
func (t *Tree) NumChildren(v int32) int32 { return t.ChildOff[v+1] - t.ChildOff[v] }

// IsAncestor reports whether u is an ancestor of v (every vertex is its own
// ancestor, matching the paper's convention in §1.1.1).
func (t *Tree) IsAncestor(u, v int32) bool {
	return t.In[u] <= t.In[v] && t.In[v] < t.Out[u]
}

// FromParent builds a tree from a parent array (Parent[root] == None),
// and returns an error if the array is not a single rooted tree. Children
// appear in increasing vertex order, and preorder visits them in that
// order. It runs one stack DFS from the root.
//
// The paper computes depths, preorder numbers and subtree intervals with
// an Euler tour ranked by pointer jumping and prefix sums over the tour,
// work O(n log n) and depth O(log n). m is charged that model cost, which
// depends on n alone. FromParent does not run the tour, for the reason
// RootEdgeList gives.
func FromParent(parent []int32, m *wd.Meter) (*Tree, error) {
	t, err := skeletonFromParent(parent)
	if err != nil {
		return nil, err
	}
	n := len(parent)
	t.Depth = make([]int32, n)
	t.In = make([]int32, n)
	t.Out = make([]int32, n)
	t.Pre = make([]int32, n)
	// Iterative preorder DFS.
	stack := make([]int32, 0, 64)
	stack = append(stack, t.Root)
	idx := int32(0)
	visited := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.In[v] = idx
		t.Pre[idx] = v
		idx++
		visited++
		// Push children in reverse so the smallest-index child pops first.
		for i := t.ChildOff[v+1] - 1; i >= t.ChildOff[v]; i-- {
			c := t.Child[i]
			t.Depth[c] = t.Depth[v] + 1
			stack = append(stack, c)
		}
	}
	if visited != n {
		return nil, fmt.Errorf("tree: parent array has a cycle or unreachable vertices (visited %d of %d)", visited, n)
	}
	// Out by reverse preorder: Out[v] = max over children, or In[v]+1.
	for i := n - 1; i >= 0; i-- {
		v := t.Pre[i]
		out := t.In[v] + 1
		for j := t.ChildOff[v]; j < t.ChildOff[v+1]; j++ {
			if o := t.Out[t.Child[j]]; o > out {
				out = o
			}
		}
		t.Out[v] = out
	}
	if n > 1 {
		// The tour's cost on its 2(n-1) arcs, with r = ⌈log₂ arcs⌉: four
		// unit-depth passes over the vertices (child positions, successors,
		// the scatter into tour order, the preorder scatter); listrank.Rank
		// over the 2n arc slots, r jumping rounds and a final step of depth
		// ⌈log₂ 2n⌉; and four passes over the arcs, three of them (two
		// prefix sums among them) charged depth r and the interval pass 1.
		arcs := int64(2 * (n - 1))
		r := wd.CeilLog2(2 * (n - 1))
		m.Add(4*int64(n)+2*int64(n)*(r+1)+4*arcs, 4+(r+wd.CeilLog2(2*n))+(3*r+1))
	}
	return t, nil
}

// skeletonFromParent validates the parent array and builds the children CSR.
func skeletonFromParent(parent []int32) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty parent array")
	}
	root := None
	off := make([]int32, n+1)
	for v, p := range parent {
		if p == None {
			if root != None {
				return nil, fmt.Errorf("tree: multiple roots (%d and %d)", root, v)
			}
			root = int32(v)
			continue
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("tree: parent[%d] = %d out of range", v, p)
		}
		if p == int32(v) {
			return nil, fmt.Errorf("tree: vertex %d is its own parent", v)
		}
		off[p+1]++
	}
	if root == None {
		return nil, fmt.Errorf("tree: no root")
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	child := make([]int32, n-1)
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for v := 0; v < n; v++ { // ascending v: children sorted by vertex id
		p := parent[v]
		if p == None {
			continue
		}
		child[cursor[p]] = int32(v)
		cursor[p]++
	}
	t := &Tree{Parent: parent, Root: root, ChildOff: off, Child: child}
	return t, nil
}

// SubtreeSum returns, for every vertex v, the sum of x over the subtree of
// v, computed with preorder prefix sums (work O(n), depth O(log n)).
func (t *Tree) SubtreeSum(x []int64, pool *par.Pool, m *wd.Meter) []int64 {
	n := t.N()
	pre := make([]int64, n+1)
	pool.For(n, func(i int) {
		pre[i+1] = x[t.Pre[i]]
	})
	pool.InclusiveSum(pre, pre)
	out := make([]int64, n)
	pool.For(n, func(v int) {
		out[v] = pre[t.Out[v]] - pre[t.In[v]]
	})
	m.Add(3*int64(n), 2+wd.CeilLog2(n))
	return out
}
