// Package mst computes minimum spanning forests. The tree-packing
// procedure behind Lemma 1 performs O(log² n) minimum spanning tree
// computations with respect to evolving edge loads, and the solver's
// connectivity test (a disconnected input's minimum cut is 0) is one
// more. Lemma 1 needs minimum spanning trees, not a particular MST
// algorithm. Forest returns the forest that is minimum under (cost, edge
// index), a total order, so the forest is unique.
//
// Forest is a Kruskal pass: a stable radix sort of the edges by (cost,
// index), whose passes are counting sorts (packing's loads never exceed
// its round count, so there one pass sorts), then union-find until one
// component is left. Its working arrays (labels, the sort's index buffers
// and counts) come from the executor's arena, so a steady-state call
// performs no allocation beyond the selected-edge output the caller
// asked for.
//
// The paper's depth bound assumes a parallel MST, such as Borůvka's
// ⌈log₂ n⌉ rounds of hooking and pointer jumping. The meter charges that
// model cost on every pool: (m + n) work and ⌈log₂ n⌉+3 depth per round.
// It is a model, not a bound on a Borůvka run, which also pays for
// visiting its live roots. Forest does not run Borůvka: on a 2-vCPU Xeon
// the Kruskal pass beat two-lane Borůvka rounds at every size measured
// (up to 2^18 vertices and 2^20 edges) under uniform costs and packing's
// loads, the only costs the callers pass (docs/ARCHITECTURE.md).
package mst

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/wd"
)

// Forest computes a minimum spanning forest of the n-vertex multigraph
// with the given edges. cost[i] is the non-negative cost of edge i (nil
// means uniform cost); ties break by edge index, making the forest
// unique. It appends the indices of the selected edges, in no particular
// order, to dst (nil allowed) and returns the extended slice, in the
// style of strconv.AppendInt, together with the number of connected
// components. Given room for n-1 more indices in dst, it makes no
// allocation of its own: its working arrays come from the pool's arena.
func Forest(dst []int32, n int, edges []graph.Edge, cost []int64, pool *par.Pool, m *wd.Meter) (sel []int32, comps int) {
	if n == 0 {
		return dst, 0
	}
	ar := pool.Arena()
	compP := ar.Int32(n)
	sel, comps = forestInto(n, edges, cost, ar, m, *compP, slices.Grow(dst, n-1))
	ar.PutInt32(compP)
	return sel, comps
}

// ForestWithLabels is Forest, additionally returning a component label per
// vertex (labels are representative vertex ids, not compacted).
func ForestWithLabels(n int, edges []graph.Edge, cost []int64, pool *par.Pool, m *wd.Meter) (sel []int32, labels []int32, comps int) {
	if n == 0 {
		return nil, nil, 0
	}
	labels = make([]int32, n)
	sel = make([]int32, 0, n-1)
	sel, comps = forestInto(n, edges, cost, pool.Arena(), m, labels, sel)
	// Point every vertex straight at its component's root.
	for v := range labels {
		labels[v] = root(labels, int32(v))
	}
	return sel, labels, comps
}

// Components returns the number of connected components (a uniform-cost
// forest, discarded). With the forest discarded, every working array
// comes from the executor's arena: steady-state calls are allocation-free.
func Components(n int, edges []graph.Edge, pool *par.Pool, m *wd.Meter) int {
	if n == 0 {
		return 0
	}
	ar := pool.Arena()
	compP := ar.Int32(n)
	selP := ar.Int32(n - 1)
	_, comps := forestInto(n, edges, nil, ar, m, *compP, (*selP)[:0])
	ar.PutInt32(selP)
	ar.PutInt32(compP)
	return comps
}

// forestInto computes the forest and returns sel, extended by the
// selected edge indices (cap n-1 avoids regrowth), and the component
// count. It visits the edges in (cost, index) order and keeps each one
// that joins two trees of the union-find forest in comp (len n, provided
// by the caller), stopping once one component is left; comp ends with
// its roots naming the components. The meter is charged Borůvka's model
// cost (see the package comment).
func forestInto(n int, edges []graph.Edge, cost []int64, ar *par.Arena, m *wd.Meter, comp, sel []int32) ([]int32, int) {
	var maxC int64
	for i, c := range cost {
		if c < 0 {
			panic(fmt.Sprintf("mst: cost[%d]=%d is negative", i, c))
		}
		maxC = max(maxC, c)
	}
	mm := len(edges)
	orderP, tmpP := ar.Int32(mm), ar.Int32(mm)
	order := sortByCost(cost, maxC, *orderP, *tmpP, ar)
	for v := range comp {
		comp[v] = int32(v)
	}
	comps := n
	for _, i := range order {
		if comps == 1 {
			break
		}
		e := edges[i]
		if ru, rv := root(comp, e.U), root(comp, e.V); ru != rv {
			comp[ru] = rv
			sel = append(sel, i)
			comps--
		}
	}
	ar.PutInt32(orderP)
	ar.PutInt32(tmpP)
	lg := wd.CeilLog2(n)
	m.Add(lg*int64(mm+n), lg*(lg+3))
	return sel, comps
}

// root returns the root of v's tree in the union-find forest parent,
// halving the path on the way.
func root(parent []int32, v int32) int32 {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// sortByCost returns the indices 0..len(order)-1 ordered by (cost, index),
// in one of the buffers order and tmp (len(cost) each, or any equal length
// when cost is nil). It is a least-significant-digit radix sort: each
// pass is a stable counting sort on the next digit, so equal costs keep
// index order. A digit covers every cost up to maxC when that takes at
// most max(8, ⌈log₂ len⌉) bits, as packing's loads do.
func sortByCost(cost []int64, maxC int64, order, tmp []int32, ar *par.Arena) []int32 {
	for i := range order {
		order[i] = int32(i)
	}
	if maxC == 0 {
		return order
	}
	width := min(bits.Len64(uint64(maxC)), max(8, bits.Len(uint(len(order)))))
	mask := int64(1)<<width - 1
	countP := ar.Int32(1<<width + 1)
	count := *countP
	for shift := 0; maxC>>shift > 0; shift += width {
		// count[d+1] counts digit d; the prefix sum turns count[d] into
		// the first output slot of digit d.
		clear(count)
		for _, i := range order {
			count[cost[i]>>shift&mask+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, i := range order {
			d := cost[i] >> shift & mask
			tmp[count[d]] = i
			count[d]++
		}
		order, tmp = tmp, order
	}
	ar.PutInt32(countP)
	return order
}

// Kruskal is the reference MST used by tests: sort edge indices by (cost,
// index) with a comparison sort and union-find. It shares no code with
// Forest's radix sort and union-find.
func Kruskal(n int, edges []graph.Edge, cost []int64) (sel []int32, comps int) {
	idx := make([]int32, len(edges))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		var ca, cb int64
		if cost != nil {
			ca, cb = cost[a], cost[b]
		}
		if c := cmp.Compare(ca, cb); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps = n
	for _, i := range idx {
		e := edges[i]
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
			sel = append(sel, i)
			comps--
		}
	}
	return sel, comps
}
