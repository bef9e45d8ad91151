package respect

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/tree"
	"repro/internal/wd"
)

// contraction maps one bough phase's graph/tree to the next (§4.3 step 2):
// every vertex of a bough collapses into the parent of the bough's top
// vertex; self-loops are dropped; parallel edges are kept ("it is not
// necessary to combine parallel edges").
type contraction struct {
	g *graph.Graph
	t *tree.Tree
	// toNew[v] = compact id of the supernode that absorbed old vertex v.
	toNew []int32
}

// contractBoughs removes the bough members from (g, t). It returns nil
// when the whole remaining tree was a single bough (the recursion ends).
func contractBoughs(g *graph.Graph, t *tree.Tree, member []bool, paths [][]int32, pool *par.Pool, m *wd.Meter) *contraction {
	n := t.N()
	// target[v]: the surviving vertex absorbing v.
	target := make([]int32, n)
	pool.For(n, func(v int) { target[v] = int32(v) })
	for _, p := range paths {
		top := p[0]
		parent := t.Parent[top]
		if parent == tree.None {
			// The bough reaches the root: everything is peeled.
			return nil
		}
		for _, v := range p {
			target[v] = parent
		}
	}
	m.Add(int64(n), 1)
	// Compact ids for survivors.
	keep := make([]int64, n+1)
	pool.For(n, func(v int) {
		if !member[v] {
			keep[v+1] = 1
		}
	})
	total := pool.InclusiveSum(keep, keep)
	newN := int(total)
	toNew := make([]int32, n)
	pool.For(n, func(v int) {
		if member[v] {
			toNew[v] = -1
		} else {
			toNew[v] = int32(keep[v])
		}
	})
	// Route bough members through their absorbing survivor.
	pool.For(n, func(v int) {
		if member[v] {
			toNew[v] = toNew[target[v]]
		}
	})
	m.Add(3*int64(n), 3+wd.CeilLog2(n))
	// New tree: parents among survivors are unchanged.
	parent := make([]int32, newN)
	pool.For(n, func(v int) {
		if member[v] {
			return
		}
		p := t.Parent[v]
		if p == tree.None {
			parent[toNew[v]] = tree.None
		} else {
			parent[toNew[v]] = toNew[p]
		}
	})
	nt, err := tree.FromParent(parent, m)
	if err != nil {
		panic("respect: contraction produced an invalid tree: " + err.Error())
	}
	// New graph: remap endpoints, drop loops, and combine parallel edges.
	// The paper notes combining is not necessary for correctness (§4.3);
	// we do it anyway because it caps the edge count of later phases at
	// the square of the shrinking vertex count, which matters on dense
	// inputs. Cut values are preserved exactly.
	type mapped struct {
		key int64
		w   int64
	}
	remapped := make([]mapped, 0, g.M())
	for _, e := range g.Edges() {
		nu, nv := toNew[e.U], toNew[e.V]
		if nu == nv {
			continue
		}
		if nu > nv {
			nu, nv = nv, nu
		}
		remapped = append(remapped, mapped{key: int64(nu)<<32 | int64(nv), w: e.W})
	}
	par.SortStableOn(pool, remapped, func(a, b mapped) bool { return a.key < b.key })
	ng := graph.New(newN)
	for i := 0; i < len(remapped); {
		key := remapped[i].key
		var w int64
		for ; i < len(remapped) && remapped[i].key == key; i++ {
			w += remapped[i].w
		}
		if err := ng.AddEdge(int(key>>32), int(key&0xffffffff), w); err != nil {
			panic("respect: contraction produced an invalid edge: " + err.Error())
		}
	}
	m.Add(int64(g.M())*wd.CeilLog2(g.M()), wd.CeilLog2(g.M())+1)
	return &contraction{g: ng, t: nt, toNew: toNew}
}
