// Package lca answers lowest-common-ancestor queries on a rooted tree via
// the Euler-tour + range-minimum reduction of Schieber–Vishkin lineage
// (paper Appendix A cites [28]): O(n log n) construction work, O(1) per
// query. The descendant case of the two-respecting cut search uses it to
// attribute every graph edge to the subtree that contains both endpoints
// (the ρ values of Appendix A), each edge's query issued from the
// caller's own parallel loop.
package lca

import (
	"repro/internal/par"
	"repro/internal/tree"
	"repro/internal/wd"
)

const blockShift = 5 // 32-entry blocks for the block-RMQ layer

// LCA is a lowest-common-ancestor index over a Tree.
type LCA struct {
	t     *tree.Tree
	euler []int32 // vertex visit sequence, length 2n-1
	first []int32 // first occurrence of each vertex in euler
	edep  []int32 // depth of euler[i]
	// Block sparse table: blockMin[k][b] = index (into euler) of the
	// minimum-depth entry among blocks b..b+2^k-1.
	blockMin [][]int32
}

// New builds the index. The Euler sequence scatters in parallel from the
// preorder intervals: vertex v enters the tour at position 2·In[v]−Depth[v]
// and its parent re-appears at 2·Out[v]−Depth[v]−1 when v's subtree
// completes, which together cover all 2n−1 positions.
func New(t *tree.Tree, pool *par.Pool, m *wd.Meter) *LCA {
	n := t.N()
	l := &LCA{t: t}
	L := 2*n - 1
	l.euler = make([]int32, L)
	l.first = make([]int32, n)
	pool.For(n, func(vi int) {
		v := int32(vi)
		enter := 2*t.In[v] - t.Depth[v]
		l.first[v] = enter
		l.euler[enter] = v
		if p := t.Parent[v]; p != tree.None {
			l.euler[2*t.Out[v]-t.Depth[v]-1] = p
		}
	})
	l.edep = make([]int32, L)
	pool.For(L, func(i int) {
		l.edep[i] = t.Depth[l.euler[i]]
	})
	m.Add(int64(2*L), 2)
	// Block minima.
	nb := (L + (1 << blockShift) - 1) >> blockShift
	row0 := make([]int32, nb)
	pool.For(nb, func(b int) {
		lo := b << blockShift
		hi := lo + (1 << blockShift)
		if hi > L {
			hi = L
		}
		best := int32(lo)
		for i := lo + 1; i < hi; i++ {
			if l.edep[i] < l.edep[best] {
				best = int32(i)
			}
		}
		row0[b] = best
	})
	l.blockMin = append(l.blockMin, row0)
	for size := 2; size <= nb; size *= 2 {
		prev := l.blockMin[len(l.blockMin)-1]
		cur := make([]int32, nb-size+1)
		half := size / 2
		pool.For(len(cur), func(b int) {
			x, y := prev[b], prev[b+half]
			if l.edep[y] < l.edep[x] {
				x = y
			}
			cur[b] = x
		})
		l.blockMin = append(l.blockMin, cur)
	}
	m.Add(int64(2*nb), wd.CeilLog2(nb)+1)
	return l
}

// Query returns the lowest common ancestor of u and v.
func (l *LCA) Query(u, v int32) int32 {
	lo, hi := l.first[u], l.first[v]
	if lo > hi {
		lo, hi = hi, lo
	}
	return l.euler[l.argminDepth(lo, hi)]
}

// argminDepth returns the index of the minimum-depth Euler entry in the
// inclusive range [lo, hi].
func (l *LCA) argminDepth(lo, hi int32) int32 {
	bl := lo >> blockShift
	bh := hi >> blockShift
	if bl == bh {
		return l.scan(lo, hi)
	}
	best := l.scan(lo, (bl+1)<<blockShift-1)
	if c := l.scan(bh<<blockShift, hi); l.edep[c] < l.edep[best] {
		best = c
	}
	if bl+1 <= bh-1 {
		// Whole blocks bl+1 .. bh-1 via the sparse table.
		cnt := bh - 1 - bl
		k := 0
		for (1 << (k + 1)) <= int(cnt) {
			k++
		}
		row := l.blockMin[k]
		x := row[bl+1]
		y := row[bh-int32(1<<k)]
		if l.edep[y] < l.edep[x] {
			x = y
		}
		if l.edep[x] < l.edep[best] {
			best = x
		}
	}
	return best
}

func (l *LCA) scan(lo, hi int32) int32 {
	best := lo
	for i := lo + 1; i <= hi; i++ {
		if l.edep[i] < l.edep[best] {
			best = i
		}
	}
	return best
}
