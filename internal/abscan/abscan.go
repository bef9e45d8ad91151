// Package abscan finds the minimum cut crossing at most two edges of a
// spanning tree with the compact search of Anderson–Blelloch
// (arXiv 2102.05301), the follow-up that improved the source paper's
// work bound: instead of decomposing the tree into boughs and running
// batched Minimum Path mixed operations per phase (internal/decomp +
// internal/respect), decompose it once into heavy paths and sweep a
// single bounded-depth contraction structure down each path.
//
// The search rests on Karger's pair identity: for tree edges e_v, e_u
// (named by their lower endpoints) the 2-respecting cut value is
//
//	cut(e_v, e_u) = c(v) + c(u) − 2·B(v, u)
//
// where c(x) is the weight of the 1-respecting cut at x (the cut of the
// subtree x↓) and B(v, u) is the total weight of graph edges whose
// tree path crosses both e_v and e_u. The identity holds for
// incomparable pairs (the cut is v↓ ∪ u↓) and nested pairs (v↓ \ u↓)
// alike, so one sweep covers both shapes — where the bough scan needed
// two separate operation batches (§4.1 pass A and Appendix A pass B).
//
// A heavy-first DFS makes both every subtree and every heavy path a
// contiguous range of DFS positions. The contraction structure ("the
// ladder") is a perfect binary tree over those positions with lazy
// range-add and minimum: leaf p holds c(order[p]) − 2·B(v, order[p])
// for the currently fixed edge e_v. The pair value is symmetric and the
// sweep fixes the edges in position order, so the best partner for e_v
// is one leaf-to-root query over the positions after e_v's own: each
// unordered pair is examined once, from its earlier position. The ladder
// stores minima and lazy sums only. A range add stops walking up at the
// first ancestor of its split node whose minimum did not change, and the
// leftmost position attaining a minimum is recovered by one descent,
// only for a candidate that beats its path's best so far. Fixing the
// next edge is cheap exactly on heavy paths:
// walking from a path's head to its leaf re-evaluates only the graph
// edges incident to the vertex left behind and its light subtrees, which
// is the classic O(log n)-re-evaluations-per-edge bound, each an
// O(log n)-hop path update. Queries come in position order and read
// only the positions after their own, so every path update is clipped to
// the positions after the edge fixed next. Every heavy path ends at a
// tree leaf, whose own edges are then the whole active set, and the
// ladder's state depends only on the summed adds, so retiring those
// edges restores every position after the tail exactly; the clipped
// residue stays on the path's own positions, which lie left of every
// later head. Heavy paths are thus independent of each other and run
// either sequentially on one ladder (O(n) extra memory) or chunked
// across the pool with one ladder per chunk — the same memory/depth
// trade as the bough scan's concurrent phase schedule
// (respect.ScanParallelPhases). The solver runs them sequentially: it
// already searches its trees in parallel.
//
// Determinism: candidates are combined in (heavy path, position) order
// with strict <, the ladder's descent returns the leftmost argmin, and
// chunk boundaries depend only on the path count, so the winning cut is
// bit-identical at every pool width.
package abscan

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/wd"
)

const maxValue = int64(1)<<62 - 1

// Finding kinds.
const (
	kindOne  = byte('1') // 1-respecting cut u↓
	kindPair = byte('2') // 2-respecting pair: u↓ xor v↓ (union or difference)
)

// Finding is the outcome of one tree's scan: the smallest cut value
// among cuts crossing at most two tree edges, plus enough provenance
// for Witness to rebuild the partition.
type Finding struct {
	// Value is the smallest cut value found.
	Value int64
	kind  byte
	u, v  int32
}

// decomposition is the heavy-path decomposition of one rooted tree in
// heavy-first DFS position space: the subtree of v occupies positions
// [tin[v], tin[v]+size[v]), and every heavy path is the consecutive run
// [tin[head], tin[tail]].
type decomposition struct {
	n      int
	root   int32
	parent []int32
	tin    []int32
	size   []int32
	head   []int32 // top vertex of v's heavy path
	heavy  []int32 // heavy child of v, or -1
	depth  []int32
	order  []int32 // DFS position -> vertex
}

// inSub reports whether x lies in the subtree of v.
func (d *decomposition) inSub(v, x int32) bool {
	return d.tin[x] >= d.tin[v] && d.tin[x] < d.tin[v]+d.size[v]
}

// lca by heavy-path hopping: O(log n).
func (d *decomposition) lca(x, y int32) int32 {
	for d.head[x] != d.head[y] {
		if d.depth[d.head[x]] < d.depth[d.head[y]] {
			x, y = y, x
		}
		x = d.parent[d.head[x]]
	}
	if d.tin[x] <= d.tin[y] {
		return x
	}
	return y
}

// build fills d from a parent array (root marked by a negative entry).
// All slices are caller-provided scratch of length n (the caller borrows
// them from the pool's arena); bfs and childList are length n, childEnd
// length n. Sequential: one tree's decomposition is O(n) and trees fan
// out in parallel above this call.
func (d *decomposition) build(parent []int32, childEnd, childList, bfs []int32) error {
	n := len(parent)
	d.n = n
	d.parent = parent
	d.root = -1
	for v := 0; v < n; v++ {
		childEnd[v] = 0
	}
	for v := 0; v < n; v++ {
		if p := parent[v]; p >= 0 {
			childEnd[p]++
		} else {
			if d.root >= 0 {
				return fmt.Errorf("abscan: two roots %d and %d", d.root, v)
			}
			d.root = int32(v)
		}
	}
	if d.root < 0 {
		return fmt.Errorf("abscan: parent array has no root")
	}
	// Prefix-sum the counts into start offsets, then place children in
	// ascending vertex order; afterwards childEnd[v] is the end of v's
	// children and the start is childEnd[v-1] (0 for v == 0).
	sum := int32(0)
	for v := 0; v < n; v++ {
		c := childEnd[v]
		childEnd[v] = sum
		sum += c
	}
	for v := int32(0); v < int32(n); v++ {
		if p := parent[v]; p >= 0 {
			childList[childEnd[p]] = v
			childEnd[p]++
		}
	}
	// BFS for depths, reverse BFS for subtree sizes.
	bfs[0] = d.root
	d.depth[d.root] = 0
	qt := 1
	for qh := 0; qh < qt; qh++ {
		v := bfs[qh]
		cs := int32(0)
		if v > 0 {
			cs = childEnd[v-1]
		}
		for i := cs; i < childEnd[v]; i++ {
			c := childList[i]
			d.depth[c] = d.depth[v] + 1
			bfs[qt] = c
			qt++
		}
	}
	if qt != n {
		return fmt.Errorf("abscan: parent array is not a single tree (%d of %d reachable)", qt, n)
	}
	for v := 0; v < n; v++ {
		d.size[v] = 1
		d.heavy[v] = -1
	}
	for i := n - 1; i >= 1; i-- {
		v := bfs[i]
		d.size[parent[v]] += d.size[v]
	}
	// Heavy child: largest subtree, smallest vertex id on ties (childList
	// is ascending, strict > keeps the first maximum).
	for v := int32(0); v < int32(n); v++ {
		p := parent[v]
		if p < 0 {
			continue
		}
		if h := d.heavy[p]; h < 0 || d.size[v] > d.size[h] {
			d.heavy[p] = v
		}
	}
	// Heavy-first DFS (explicit stack, reusing bfs as the stack): the
	// heavy child is entered first so heavy paths are consecutive
	// positions; light children follow in ascending vertex order.
	stack := bfs
	stack[0] = d.root
	d.head[d.root] = d.root
	top := 1
	t := int32(0)
	for top > 0 {
		top--
		v := stack[top]
		d.tin[v] = t
		d.order[t] = v
		t++
		cs := int32(0)
		if v > 0 {
			cs = childEnd[v-1]
		}
		h := d.heavy[v]
		for i := childEnd[v] - 1; i >= cs; i-- {
			c := childList[i]
			if c == h {
				continue
			}
			d.head[c] = c
			stack[top] = c
			top++
		}
		if h >= 0 {
			d.head[h] = d.head[v]
			stack[top] = h
			top++
		}
	}
	return nil
}

// ladder is the bounded-depth contraction structure: a perfect binary
// tree over DFS positions with lazy range-add and minimum, depth
// ⌈log₂ n⌉. lazy[x] sums the adds that covered x's whole range. minv[x]
// is a leaf's value plus its lazy, and min(minv[2x], minv[2x+1]) +
// lazy[x] at an internal node, so it includes the adds at and below x
// but not those pending at x's ancestors. The state is thus a function
// of the per-node lazy sums alone, whatever the order of the adds and
// wherever an add's upward walk stopped: a node the walk did not
// recompute already held the value a recomputation would give. No
// argmin is stored; leftmost recovers one from minv on demand.
type ladder struct {
	base int // leaf count, power of two >= n
	minv []int64
	lazy []int64
}

// reset initializes the ladder over vals (leaf p = vals[p]); leaves at
// and past len(vals), and leaf 0 (the root vertex, which names no tree
// edge), hold the +inf sentinel. No range-add ever reaches a sentinel
// leaf — addPath never touches position 0 — so sentinels stay inert.
func (t *ladder) reset(vals []int64) {
	base := 1
	for base < len(vals) {
		base *= 2
	}
	t.base = base
	for p := 0; p < base; p++ {
		if p > 0 && p < len(vals) {
			t.minv[base+p] = vals[p]
		} else {
			t.minv[base+p] = maxValue
		}
		t.lazy[base+p] = 0
	}
	for x := base - 1; x >= 1; x-- {
		t.lazy[x] = 0
		t.pull(x)
	}
}

// pull recomputes internal node x's minimum from its children.
func (t *ladder) pull(x int) {
	t.minv[x] = min(t.minv[2*x], t.minv[2*x+1]) + t.lazy[x]
}

// add adds delta to positions [l, r] (inclusive, l ≤ r). The range's
// canonical nodes take the add bottom-up. They all lie in the
// subtree of the split node, the lowest common ancestor of leaves l and
// r, and each one's parent is on the walk up from leaf l or from leaf
// r, so pulling both walks up to the split recomputes every minimum
// below it. The split node is pulled unconditionally: when [l, r] is
// exactly its range it took the add itself, so its pull changes nothing
// although its parent's input did (a leaf split, l = r, has nothing to
// pull). Strictly above the split no node took the add and only one
// child of each can have changed, so the walk stops at the first
// ancestor whose minimum comes out unchanged: every node above it
// would too.
func (t *ladder) add(l, r int, delta int64) {
	lo, hi := t.base+l, t.base+r
	for a, b := lo, hi+1; a < b; a, b = a>>1, b>>1 {
		if a&1 == 1 {
			t.minv[a] += delta
			t.lazy[a] += delta
			a++
		}
		if b&1 == 1 {
			b--
			t.minv[b] += delta
			t.lazy[b] += delta
		}
	}
	for lo != hi {
		lo, hi = lo>>1, hi>>1
		t.pull(lo)
		if hi != lo {
			t.pull(hi)
		}
	}
	for x := lo >> 1; x >= 1; x >>= 1 {
		old := t.minv[x]
		t.pull(x)
		if t.minv[x] == old {
			return
		}
	}
}

// minAfter returns the minimum over the positions after p and the node
// holding it: leftmost of that node is the leftmost position attaining
// the minimum. It walks from leaf p to the root: each right sibling's
// range lies wholly after p, and its minimum competes with the best so
// far once both carry the same pending adds, the lower (left) node
// winning ties. Sentinel leaves never take an add, so a node over
// sentinels alone holds exactly maxValue and never wins: the result is
// (maxValue, 0) when no real position follows p.
func (t *ladder) minAfter(p int) (int64, int) {
	m, a := maxValue, 0
	for x := t.base + p; x > 1; x >>= 1 {
		if x&1 == 0 && t.minv[x+1] < m {
			m, a = t.minv[x+1], x+1
		}
		if a != 0 {
			m += t.lazy[x>>1]
		}
	}
	return m, a
}

// leftmost returns the leftmost position of x's range attaining x's
// minimum, descending by pull's rule: the left child wins ties.
func (t *ladder) leftmost(x int) int {
	for x < t.base {
		x *= 2
		if t.minv[x] > t.minv[x+1] {
			x++
		}
	}
	return x - t.base
}

// pathOut is one heavy path's best candidate.
type pathOut struct {
	value int64
	u, v  int32
}

// sweep walks heavy paths over one ladder. Parallel chunks each own a
// sweep; the sequential mode uses a single one.
type sweep struct {
	d   *decomposition
	adj *graph.Adj
	c   []int64
	lad *ladder
	// lo is the clip bound: no query still to come on this ladder reads a
	// position before lo, so path updates skip those positions.
	lo int32
	// adds counts the non-empty range adds made on the ladder.
	adds int
}

// addPath adds delta to the ladder position of every tree edge on the
// tree path x..y from lo on, by heavy-path hops: positions along one
// heavy path are consecutive, and the edge out of a path's head is the
// head's own position. Each hop's endpoint moves to a smaller position,
// so once both endpoints lie before lo nothing is left to add. The
// ranges depend only on the pair {x, y} and lo.
func (s *sweep) addPath(x, y int32, delta int64) {
	d := s.d
	for d.head[x] != d.head[y] {
		if max(d.tin[x], d.tin[y]) < s.lo {
			return
		}
		if d.depth[d.head[x]] < d.depth[d.head[y]] {
			x, y = y, x
		}
		hx := d.head[x]
		s.addRange(d.tin[hx], d.tin[x], delta)
		x = d.parent[hx]
	}
	if d.tin[x] > d.tin[y] {
		x, y = y, x
	}
	// x is the LCA; the path covers the edges of (x, y]'s vertices.
	s.addRange(d.tin[x]+1, d.tin[y], delta)
}

// addRange adds delta to positions [max(l, lo), r] unless that range is
// empty.
func (s *sweep) addRange(l, r int32, delta int64) {
	l = max(l, s.lo)
	if l > r {
		return
	}
	s.adds++
	s.lad.add(int(l), int(r), delta)
}

// shift re-evaluates the graph edges of vertex x for the transition from
// fixed edge e_v to e_u (u = heavy child of v, x ∈ {v} ∪ light subtrees
// of v): an edge leaves the active set when its far endpoint is outside
// v↓ (it crossed e_v but not e_u) and enters it when the far endpoint is
// inside u↓. Far endpoints in the departing region itself are no-ops on
// both counts, so edges inside the region are touched twice and changed
// never.
func (s *sweep) shift(x, v, u int32) {
	d := s.d
	adj := s.adj
	for k := adj.Off[x]; k < adj.Off[x+1]; k++ {
		y := adj.Nbr[k]
		if !d.inSub(v, y) {
			s.addPath(x, y, 2*adj.W[k])
		} else if d.inSub(u, y) {
			s.addPath(x, y, -2*adj.W[k])
		}
	}
}

// runPath scans the heavy path with head hd: enters S(hd) by activating
// every graph edge crossing e_hd, then walks down the path, querying the
// best partner after each fixed edge's position and shifting the active
// set to the heavy child, and finally retires the edges of the path's
// tail leaf — the whole active set left. Every update is clipped to the
// positions after the edge fixed next (after the tail for the retire),
// so afterwards every position after the tail, which is every position a
// later path reads, is back to S(∅).
func (s *sweep) runPath(hd int32) pathOut {
	d := s.d
	adj := s.adj
	s.lo = d.tin[hd] + 1
	// Entry: edges with exactly one endpoint in hd↓ cross e_hd. Edges
	// with both endpoints inside contribute nothing and are skipped.
	for p := d.tin[hd]; p < d.tin[hd]+d.size[hd]; p++ {
		x := d.order[p]
		for k := adj.Off[x]; k < adj.Off[x+1]; k++ {
			y := adj.Nbr[k]
			if !d.inSub(hd, y) {
				s.addPath(x, y, -2*adj.W[k])
			}
		}
	}
	out := pathOut{value: maxValue}
	v := hd
	for {
		// Best partner for e_v after its position. A pair with an earlier
		// partner was examined from that partner's position, and e_v's own
		// leaf holds c(v) − 2·B(v,v), which is not a pair value.
		m, x := s.lad.minAfter(int(d.tin[v]))
		if m < maxValue && s.c[v]+m < out.value {
			out = pathOut{value: s.c[v] + m, u: v, v: d.order[s.lad.leftmost(x)]}
		}
		u := d.heavy[v]
		if u < 0 {
			break
		}
		// Shift S(v) -> S(u): re-evaluate edges incident to the departing
		// region {v} ∪ light subtrees of v.
		s.lo = d.tin[u] + 1
		s.shift(v, v, u)
		for i := d.tin[v] + 1; i < d.tin[v]+d.size[v]; i++ {
			x := d.order[i]
			if x == u {
				// Skip u's own (heavy) subtree: positions jump past it.
				i += d.size[u] - 1
				continue
			}
			s.shift(x, v, u)
		}
		v = u
	}
	// v is the tail, a leaf, so the active set is exactly v's edges (the
	// adjacency holds no self-loops), each added once with −2w. A
	// position after the tail took every update the path made, and the
	// ladder's state depends only on the summed adds, so retiring these
	// restores it.
	s.lo = d.tin[v] + 1
	for k := adj.Off[v]; k < adj.Off[v+1]; k++ {
		s.addPath(v, adj.Nbr[k], 2*adj.W[k])
	}
	return out
}

// Scan finds the minimum cut of g crossing at most two edges of the
// spanning tree given by parent (root marked by -1). adj is g's CSR
// adjacency (shared read-only across trees) and deg its weighted
// degrees. Each unordered pair of tree edges is examined once, from its
// earlier DFS position, and every path update is clipped to the
// positions still queried, so one ladder must sweep its paths in
// position order. With parallelPaths the heavy paths are chunked across
// the pool, one ladder per chunk of consecutive paths (more memory, less
// depth); results are identical either way and at every pool width.
// ctx is checked between heavy paths; sink counts each completed heavy
// path through the bough-phase counters (heavy paths play the role
// bough phases play in the respect scan, including as park/cancel
// seams); sp gets the path-decompose / contract / path-scan child spans.
func Scan(ctx context.Context, g *graph.Graph, adj *graph.Adj, deg []int64, parent []int32, parallelPaths bool, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (Finding, error) {
	n := g.N()
	if n < 2 {
		return Finding{}, fmt.Errorf("abscan: graph needs at least 2 vertices")
	}
	if len(parent) != n {
		return Finding{}, fmt.Errorf("abscan: parent array length %d != n %d", len(parent), n)
	}
	ar := pool.Arena()
	logn := wd.CeilLog2(n)

	// Phase 1: heavy-path decomposition.
	dsp := sp.Child("path-decompose")
	d, put, err := buildDecomposition(parent, ar)
	if err != nil {
		dsp.End()
		return Finding{}, err
	}
	defer put()
	m.Add(int64(4*n), logn)
	dsp.End()

	// Phase 2: per-vertex 1-respecting cut values and the contraction
	// ladder. c(v) = (Σ_{x∈v↓} deg(x)) − 2·(Σ_{x∈v↓} ρ(x)) where ρ(x) is
	// the weight of edges whose tree-path LCA is x: both sums accumulate
	// bottom-up in reverse DFS order.
	csp := sp.Child("contract")
	cp := ar.Int64(n)
	rhop := ar.Int64(n)
	defer ar.PutInt64(cp)
	defer ar.PutInt64(rhop)
	c, rho := *cp, *rhop
	for v := 0; v < n; v++ {
		c[v] = deg[v]
		rho[v] = 0
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		rho[d.lca(e.U, e.V)] += e.W
	}
	for p := n - 1; p >= 1; p-- {
		v := d.order[p]
		pa := parent[v]
		c[pa] += c[v]
		rho[pa] += rho[v]
	}
	for v := 0; v < n; v++ {
		c[v] -= 2 * rho[v]
	}
	m.Add(int64(g.M())*logn+int64(2*n), logn)
	csp.End()

	// 1-respecting candidate: smallest c(v) over non-root vertices, in
	// position order (leftmost wins ties — same tie-break the ladder uses).
	best := Finding{Value: maxValue}
	for p := 1; p < n; p++ {
		if v := d.order[p]; c[v] < best.Value {
			best = Finding{Value: c[v], kind: kindOne, u: v}
		}
	}

	// Collect heavy-path heads in position order.
	headsP := ar.Int32(n)
	defer ar.PutInt32(headsP)
	heads := (*headsP)[:0]
	for p := 0; p < n; p++ {
		if v := d.order[p]; d.head[v] == v {
			heads = append(heads, v)
		}
	}
	sink.AddBoughs(len(heads))

	// Phase 3: sweep every heavy path.
	ssp := sp.Child("path-scan").AttrInt("paths", int64(len(heads)))
	defer ssp.End()
	outsP := par.Slice[pathOut](ar, len(heads))
	defer par.PutSlice(ar, outsP)
	outs := *outsP
	runRange := func(lo, hi int) error {
		sw, putSweep := newSweep(d, adj, c, ar)
		defer putSweep()
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			outs[i] = sw.runPath(heads[i])
			sink.BoughPhaseDone()
		}
		return nil
	}
	if parallelPaths && len(heads) > 1 {
		pool.ForChunk(len(heads), 1, func(lo, hi int) {
			// Cancellation aborts the chunk; the error surfaces below.
			_ = runRange(lo, hi)
		})
		if err := ctx.Err(); err != nil {
			return Finding{}, fmt.Errorf("abscan: scan canceled: %w", err)
		}
	} else {
		if err := runRange(0, len(heads)); err != nil {
			return Finding{}, fmt.Errorf("abscan: scan canceled: %w", err)
		}
	}
	// Combine in path order with strict <, matching the sequential sweep.
	for i := range outs {
		if outs[i].value < best.Value {
			best = Finding{Value: outs[i].value, kind: kindPair, u: outs[i].u, v: outs[i].v}
		}
	}
	m.Add(int64(g.M())*logn*logn, logn*logn)
	if best.Value >= maxValue {
		return Finding{}, fmt.Errorf("abscan: no cut candidate found")
	}
	return best, nil
}

// buildDecomposition borrows scratch for a decomposition from the arena
// and fills it; put returns everything.
func buildDecomposition(parent []int32, ar *par.Arena) (*decomposition, func(), error) {
	n := len(parent)
	bufs := make([]*[]int32, 0, 9)
	grab := func() []int32 {
		sp := ar.Int32(n)
		bufs = append(bufs, sp)
		return *sp
	}
	d := &decomposition{
		tin:   grab(),
		size:  grab(),
		head:  grab(),
		heavy: grab(),
		depth: grab(),
		order: grab(),
	}
	childEnd, childList, bfs := grab(), grab(), grab()
	put := func() {
		for _, sp := range bufs {
			ar.PutInt32(sp)
		}
	}
	if err := d.build(parent, childEnd, childList, bfs); err != nil {
		put()
		return nil, nil, err
	}
	return d, put, nil
}

// newSweep borrows a ladder sized for d from the arena. Each runPath
// leaves it as reset here.
func newSweep(d *decomposition, adj *graph.Adj, c []int64, ar *par.Arena) (*sweep, func()) {
	base := 1
	for base < d.n {
		base *= 2
	}
	minvP := ar.Int64(2 * base)
	lazyP := ar.Int64(2 * base)
	lad := &ladder{minv: *minvP, lazy: *lazyP}
	// Leaf p carries c(order[p]): ladder positions are DFS positions.
	valsP := ar.Int64(d.n)
	vals := *valsP
	for p := 0; p < d.n; p++ {
		vals[p] = c[d.order[p]]
	}
	lad.reset(vals)
	ar.PutInt64(valsP)
	sw := &sweep{d: d, adj: adj, c: c, lad: lad}
	put := func() {
		ar.PutInt64(minvP)
		ar.PutInt64(lazyP)
	}
	return sw, put
}

// Witness reconstructs one side of the cut a Finding describes: for a
// 1-respecting cut the subtree u↓; for a pair, the symmetric difference
// u↓ xor v↓, which is the union for incomparable edges and the
// set difference for nested ones.
func Witness(g *graph.Graph, parent []int32, f Finding, pool *par.Pool, m *wd.Meter) ([]bool, error) {
	n := g.N()
	if len(parent) != n {
		return nil, fmt.Errorf("abscan: parent array length %d != n %d", len(parent), n)
	}
	d, put, err := buildDecomposition(parent, pool.Arena())
	if err != nil {
		return nil, err
	}
	defer put()
	inCut := make([]bool, n)
	u, v, kind := f.u, f.v, f.kind
	pool.For(n, func(x int) {
		in := d.inSub(u, int32(x))
		if kind == kindPair {
			in = in != d.inSub(v, int32(x))
		}
		inCut[x] = in
	})
	m.Add(int64(n), 1)
	return inCut, nil
}
