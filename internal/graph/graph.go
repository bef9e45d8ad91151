// Package graph provides the weighted undirected multigraph type used
// throughout the repository (paper §1.1.1): n vertices, m edges, positive
// integer edge weights. Parallel edges are allowed (they arise naturally
// from the contractions in §4.3); self-loops are allowed on input but never
// cross any cut, so most algorithms drop them.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/par"
)

// MaxTotalWeight bounds the sum of all edge weights. Keeping the total
// below 2^40 guarantees that every intermediate quantity in the minimum
// path structures (which add and subtract path sums and the ±infinity
// blocking sentinel) stays far away from int64 overflow.
const MaxTotalWeight = int64(1) << 40

// Edge is an undirected weighted edge between vertices U and V.
type Edge struct {
	U, V int32
	W    int64
}

// Graph is a weighted undirected multigraph. The zero value is an empty
// graph with no vertices; use New.
type Graph struct {
	n     int
	edges []Edge
	total int64
}

// New returns an empty graph on n vertices (numbered 0..n-1).
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n}
}

// AddEdge appends the undirected edge {u, v} with weight w.
func (g *Graph) AddEdge(u, v int, w int64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", u, v, w)
	}
	// Compared as a difference: total+w would wrap for w near MaxInt64.
	if w > MaxTotalWeight-g.total {
		return fmt.Errorf("graph: total weight would exceed %d", MaxTotalWeight)
	}
	g.edges = append(g.edges, Edge{int32(u), int32(v), w})
	g.total += w
	return nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 { return g.total }

// WeightedDegrees returns, for each vertex, the total weight of incident
// non-loop edges. The smallest entry is the classic upper bound on the
// minimum cut (the singleton cut of that vertex).
func (g *Graph) WeightedDegrees() []int64 {
	deg := make([]int64, g.n)
	for _, e := range g.edges {
		if e.U == e.V {
			continue
		}
		deg[e.U] += e.W
		deg[e.V] += e.W
	}
	return deg
}

// CutValue returns the total weight of edges crossing the cut described by
// inCut (vertices with inCut[v] true form one side). It is the reference
// cut evaluator used by tests and by witness verification. It runs on the
// shared default pool; solver code holding an executor uses CutValueOn.
func (g *Graph) CutValue(inCut []bool) int64 {
	return g.CutValueOn(nil, inCut)
}

// CutValueOn is CutValue on an explicit pool (nil = default).
func (g *Graph) CutValueOn(pool *par.Pool, inCut []bool) int64 {
	if len(inCut) != g.n {
		panic("graph: CutValue partition length mismatch")
	}
	var total atomic.Int64
	pool.ForChunk(len(g.edges), par.Grain, func(lo, hi int) {
		var s int64
		for _, e := range g.edges[lo:hi] {
			if inCut[e.U] != inCut[e.V] {
				s += e.W
			}
		}
		total.Add(s)
	})
	return total.Load()
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	return &Graph{n: g.n, edges: edges, total: g.total}
}

// Canonical returns a copy of the graph in canonical edge order: every
// edge stored with U <= V, the list sorted by (U, V, W). Graphs that
// differ only in edge input order or endpoint order share one canonical
// form, which makes the form's serialization suitable for
// content-addressing.
func (g *Graph) Canonical() *Graph {
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		edges[i] = e
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		if a.V != b.V {
			return cmp.Compare(a.V, b.V)
		}
		return cmp.Compare(a.W, b.W)
	})
	return &Graph{n: g.n, edges: edges, total: g.total}
}

// Adj is a CSR adjacency view of a Graph: for vertex v, the incident half
// edges are Nbr[Off[v]:Off[v+1]] with the parallel array W (edge weight).
// Self-loops are excluded.
type Adj struct {
	Off []int32
	Nbr []int32
	W   []int64
}

// Degree returns the number of incident non-loop half-edges of v.
func (a *Adj) Degree(v int) int { return int(a.Off[v+1] - a.Off[v]) }

// BuildAdj constructs the CSR adjacency of g in parallel on the default
// pool.
func (g *Graph) BuildAdj() *Adj {
	return g.BuildAdjOn(nil)
}

// BuildAdjOn is BuildAdj on an explicit pool (nil = default).
func (g *Graph) BuildAdjOn(pool *par.Pool) *Adj {
	n := g.n
	counts := make([]int64, n+1)
	for _, e := range g.edges {
		if e.U == e.V {
			continue
		}
		counts[e.U+1]++
		counts[e.V+1]++
	}
	pool.InclusiveSum(counts, counts)
	total := counts[n]
	a := &Adj{
		Off: make([]int32, n+1),
		Nbr: make([]int32, total),
		W:   make([]int64, total),
	}
	for v := 0; v <= n; v++ {
		a.Off[v] = int32(counts[v])
	}
	cursor := make([]int32, n)
	copy(cursor, a.Off[:n])
	for _, e := range g.edges {
		if e.U == e.V {
			continue
		}
		cu := cursor[e.U]
		a.Nbr[cu], a.W[cu] = e.V, e.W
		cursor[e.U]++
		cv := cursor[e.V]
		a.Nbr[cv], a.W[cv] = e.U, e.W
		cursor[e.V]++
	}
	return a
}
