package parcut

import (
	"fmt"

	"repro/internal/minpath"
	"repro/internal/par"
	"repro/internal/tree"
)

// PathAggregator is the paper's parallel Minimum Path structure (§3) as a
// standalone tool: a rooted tree with an int64 weight per vertex,
// supporting batches of mixed operations
//
//	AddPath(v, x): add x to the weight of every vertex on the path v→root
//	MinPath(v):    the smallest weight on that path
//
// executed as if sequential, in O(k·log n·(log n + log k) + n log n) work
// and poly-logarithmic depth (Lemma 9). Batches commit: updates persist
// into the stored weights for subsequent batches.
type PathAggregator struct {
	t       *tree.Tree
	s       *minpath.Structure
	weights []int64
	pool    *par.Pool
}

// PathOp is one operation in a batch.
type PathOp struct {
	// Query selects MinPath (true) or AddPath (false).
	Query bool
	// Vertex is the lower endpoint of the root path.
	Vertex int32
	// X is the AddPath increment (ignored for queries).
	X int64
}

// AddPath builds an update operation.
func AddPath(v int32, x int64) PathOp { return PathOp{Vertex: v, X: x} }

// MinPath builds a query operation.
func MinPath(v int32) PathOp { return PathOp{Query: true, Vertex: v} }

// NewPathAggregator builds the structure over the rooted tree described by
// parent (root marked with -1) with the given initial weights, running on
// the shared default executor. It returns an error if weights does not
// have one entry per vertex or parent is not a single rooted tree: a
// second root, a parent out of range, a vertex that is its own parent, or
// a cycle.
func NewPathAggregator(parent []int32, weights []int64) (*PathAggregator, error) {
	return NewPathAggregatorOpts(parent, weights, Options{})
}

// NewPathAggregatorOpts is NewPathAggregator with execution options:
// opt.Executor pins the aggregator's batches to a caller-owned executor.
// The remaining Options fields are ignored. Results are identical at
// every executor width.
func NewPathAggregatorOpts(parent []int32, weights []int64, opt Options) (*PathAggregator, error) {
	if len(parent) != len(weights) {
		return nil, fmt.Errorf("parcut: %d weights for %d vertices", len(weights), len(parent))
	}
	t, err := tree.FromParent(parent, nil)
	if err != nil {
		return nil, fmt.Errorf("parcut: %v", err)
	}
	w := make([]int64, len(weights))
	copy(w, weights)
	pool := opt.Executor.unwrap()
	return &PathAggregator{
		t:       t,
		s:       minpath.New(t, pool, nil),
		weights: w,
		pool:    pool,
	}, nil
}

// N returns the number of tree vertices.
func (p *PathAggregator) N() int { return p.t.N() }

// Weight returns the current weight of vertex v.
func (p *PathAggregator) Weight(v int32) int64 { return p.weights[v] }

// Run executes the batch in order and returns one entry per op (query
// results at query positions, 0 elsewhere). Updates persist: after Run,
// the stored weights reflect all AddPath operations of the batch.
func (p *PathAggregator) Run(ops []PathOp) ([]int64, error) {
	for i, op := range ops {
		if op.Vertex < 0 || int(op.Vertex) >= p.t.N() {
			return nil, fmt.Errorf("parcut: op %d vertex %d out of range", i, op.Vertex)
		}
	}
	inner := make([]minpath.Op, len(ops))
	for i, op := range ops {
		inner[i] = minpath.Op{Query: op.Query, Vertex: op.Vertex, X: op.X}
	}
	res := p.s.RunBatch(p.weights, inner, p.pool, nil)
	p.commit(ops)
	return res, nil
}

// commit folds the batch's updates into the stored weights: AddPath(v, x)
// raises the weight of every ancestor of v, so the new weight of u is the
// old weight plus the subtree sum (over u's subtree) of the per-vertex
// update totals.
func (p *PathAggregator) commit(ops []PathOp) {
	n := p.t.N()
	perVertex := make([]int64, n)
	any := false
	for _, op := range ops {
		if !op.Query && op.X != 0 {
			perVertex[op.Vertex] += op.X
			any = true
		}
	}
	if !any {
		return
	}
	sums := p.t.SubtreeSum(perVertex, p.pool, nil)
	p.pool.For(n, func(v int) {
		p.weights[v] += sums[v]
	})
}
