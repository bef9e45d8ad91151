// Package minpath implements the paper's Minimum Path structure (§2.2,
// §3.4): a rooted tree with vertex weights supporting AddPath(v, x) — add
// x to every vertex on the path from v to the root — and MinPath(v) —
// smallest weight on that path. A batch of k mixed operations runs in
// O(k log n (log n + log k) + n log n) work and O(log n (log n + log k))
// depth (Lemma 9): the tree is decomposed into boughs (§3.3), each
// operation expands into at most log2(n)+1 Minimum Prefix operations (one
// per path of the decomposition crossed by its root path, Figure 4), and
// the per-path batches execute in parallel with the §3.1–3.2 machinery.
package minpath

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/minprefix"
	"repro/internal/par"
	"repro/internal/tree"
	"repro/internal/wd"
)

// Op is one Minimum Path operation: AddPath (Query false) adds X to all
// vertices on the path Vertex→root; MinPath (Query true) returns the
// minimum weight on that path. Batch position is the operation's time.
type Op struct {
	Query  bool
	Vertex int32
	X      int64
}

// AddOp and MinOp are convenience constructors.
func AddOp(v int32, x int64) Op { return Op{Vertex: v, X: x} }
func MinOp(v int32) Op          { return Op{Query: true, Vertex: v} }

// Structure is a Minimum Path structure over a fixed tree: the bough
// decomposition is built once and reused across batches.
type Structure struct {
	T *tree.Tree
	D *decomp.Decomposition
}

// New decomposes the tree (Lemma 7) and returns a reusable structure.
func New(t *tree.Tree, pool *par.Pool, m *wd.Meter) *Structure {
	return &Structure{T: t, D: decomp.Decompose(t, pool, m)}
}

// expOp is one Minimum Prefix operation produced by expanding a tree op.
type expOp struct {
	seg    int32
	leaf   int32
	expIdx int32 // position in expansion order, for result scatter
	query  bool
	x      int64
}

// RunBatch executes the ops in order against initial vertex weights w0,
// returning a slice with one entry per op (query results at query
// positions, 0 elsewhere). The weights conceptually revert for the next
// batch: RunBatch does not mutate w0.
func (s *Structure) RunBatch(w0 []int64, ops []Op, pool *par.Pool, m *wd.Meter) []int64 {
	n := s.T.N()
	if len(w0) != n {
		panic(fmt.Sprintf("minpath: %d weights for %d vertices", len(w0), n))
	}
	res := make([]int64, len(ops))
	if len(ops) == 0 {
		return res
	}
	k := len(ops)
	d := s.D
	// Pass 1: count each op's expansion length (segments crossed on the
	// way to the root, at most NumPhases by Lemma 7).
	off := make([]int64, k+1)
	pool.For(k, func(i int) {
		v := ops[i].Vertex
		if v < 0 || int(v) >= n {
			panic(fmt.Sprintf("minpath: op %d vertex %d out of range", i, v))
		}
		c := int64(0)
		for v != tree.None {
			c++
			v = d.FrontParent[d.PathOf[v]]
		}
		off[i+1] = c
	})
	total := pool.InclusiveSum(off[1:], off[1:]) // off[i], off[i+1) brackets op i
	m.Add(int64(k)*int64(d.NumPhases), int64(d.NumPhases)+wd.CeilLog2(k))
	// Pass 2: materialize the expansions in op (= time) order.
	exp := make([]expOp, total)
	pool.For(k, func(i int) {
		v := ops[i].Vertex
		at := off[i]
		for v != tree.None {
			p := d.PathOf[v]
			exp[at] = expOp{
				seg:    p,
				leaf:   d.PosOf[v],
				expIdx: int32(at),
				query:  ops[i].Query,
				x:      ops[i].X,
			}
			at++
			v = d.FrontParent[p]
		}
	})
	m.Add(total, int64(d.NumPhases))
	// Group by segment with a stable counting sort (segment ids are a
	// bounded universe, so this is a linear-work sort; time order within a
	// segment is preserved by scattering in expansion order).
	numSegs := len(d.Paths)
	segCount := make([]int64, numSegs+1)
	for _, e := range exp {
		segCount[e.seg+1]++
	}
	pool.InclusiveSum(segCount, segCount)
	sorted := make([]expOp, total)
	cursor := make([]int64, numSegs)
	copy(cursor, segCount[:numSegs])
	for _, e := range exp {
		sorted[cursor[e.seg]] = e
		cursor[e.seg]++
	}
	m.Add(3*total, wd.CeilLog2(int(total)))
	// Per-segment sub-batches run in parallel; results scatter back to
	// expansion order.
	expRes := make([]int64, total)
	var bounds []int64
	for s := 0; s < numSegs; s++ {
		if segCount[s] < segCount[s+1] {
			bounds = append(bounds, segCount[s])
		}
	}
	bounds = append(bounds, total)
	// Each segment meters its own sub-batch, and the segments compose as
	// parallel branches: Lemma 9's depth takes the deepest, not their sum.
	var segMeters []*wd.Meter
	if m != nil {
		segMeters = make([]*wd.Meter, len(bounds)-1)
	}
	pool.ForGrain(len(bounds)-1, 1, func(bi int) {
		lo, hi := bounds[bi], bounds[bi+1]
		seg := sorted[lo].seg
		path := d.Paths[seg]
		weights := make([]int64, len(path))
		for i, v := range path {
			weights[i] = w0[v]
		}
		sub := make([]minprefix.Op, hi-lo)
		for i := lo; i < hi; i++ {
			sub[i-lo] = minprefix.Op{Query: sorted[i].query, Leaf: sorted[i].leaf, X: sorted[i].x}
		}
		var sm *wd.Meter
		if segMeters != nil {
			sm = new(wd.Meter)
			segMeters[bi] = sm
		}
		subRes := minprefix.RunBatch(weights, sub, pool, sm)
		for i := lo; i < hi; i++ {
			expRes[sorted[i].expIdx] = subRes[i-lo]
		}
	})
	m.Par(segMeters...)
	// Reduce each query's expansion results to their minimum (§3.4: "the
	// smallest result of the O(log n) MinPrefix queries").
	pool.For(k, func(i int) {
		if !ops[i].Query {
			return
		}
		lo, hi := off[i], off[i+1]
		best := expRes[lo]
		for j := lo + 1; j < hi; j++ {
			if expRes[j] < best {
				best = expRes[j]
			}
		}
		res[i] = best
	})
	m.Add(total, int64(d.NumPhases))
	return res
}

// Naive is the walk-to-root reference executor used by tests.
type Naive struct {
	t *tree.Tree
	w []int64
}

// NewNaive copies w0.
func NewNaive(t *tree.Tree, w0 []int64) *Naive {
	w := make([]int64, len(w0))
	copy(w, w0)
	return &Naive{t: t, w: w}
}

// AddPath adds x to all vertices from v to the root.
func (s *Naive) AddPath(v int32, x int64) {
	for v != tree.None {
		s.w[v] += x
		v = s.t.Parent[v]
	}
}

// MinPath returns the smallest weight on the path from v to the root.
func (s *Naive) MinPath(v int32) int64 {
	best := s.w[v]
	v = s.t.Parent[v]
	for v != tree.None {
		if s.w[v] < best {
			best = s.w[v]
		}
		v = s.t.Parent[v]
	}
	return best
}

// Run executes a batch (result layout as in Structure.RunBatch).
func (s *Naive) Run(ops []Op) []int64 {
	res := make([]int64, len(ops))
	for i, op := range ops {
		if op.Query {
			res[i] = s.MinPath(op.Vertex)
		} else {
			s.AddPath(op.Vertex, op.X)
		}
	}
	return res
}
