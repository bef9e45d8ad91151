package abscan

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/respect"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

func scanTree(t *testing.T, g *graph.Graph, parent []int32, parallelPaths bool, pool *par.Pool) Finding {
	t.Helper()
	adj := g.BuildAdjOn(pool)
	f, err := Scan(context.Background(), g, adj, g.WeightedDegrees(), parent, parallelPaths, pool, nil, nil, trace.SpanRef{})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return f
}

// addLoopsAndCopies gives each listed vertex a self-loop and a parallel
// copy of one of its edges, turning g into a multigraph.
func addLoopsAndCopies(t *testing.T, g *graph.Graph, at []int32, rng *rand.Rand) {
	t.Helper()
	adj := g.BuildAdj()
	for _, v := range at {
		y := adj.Nbr[adj.Off[v]+int32(rng.Intn(adj.Degree(int(v))))]
		for _, e := range [][2]int32{{v, v}, {v, y}} {
			if err := g.AddEdge(int(e[0]), int(e[1]), 1+rng.Int63n(20)); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
	}
}

// TestScanMatchesRespect is the ground-truth property test: on random
// connected graphs of varied density, some of them multigraphs with
// self-loops and parallel copies, plus a few of the sparse benchmark
// workload's shape (n=520, m=2n, w≤100), with several random spanning
// trees each, the AB sweep must find exactly the value the
// bough-decomposition scan (internal/respect, Lemma 13) finds — both are
// exact minimum ≤2-respecting cut searches for the given tree.
func TestScanMatchesRespect(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	multi := rand.New(rand.NewSource(8))
	for i := 0; i < 43; i++ {
		var g *graph.Graph
		if i < 40 {
			n := 2 + rng.Intn(70)
			maxM := n * (n - 1) / 2
			m := n - 1
			if maxM > n-1 {
				m += rng.Intn(maxM - (n - 1) + 1)
			}
			g = gen.RandomConnected(n, m, 50, int64(2000+i))
		} else {
			g = gen.RandomConnected(520, 1040, 100, int64(2000+i))
		}
		if i%4 == 1 {
			at := make([]int32, 1+g.N()/8)
			for j := range at {
				at[j] = int32(multi.Intn(g.N()))
			}
			addLoopsAndCopies(t, g, at, multi)
		}
		for tr := 0; tr < 3; tr++ {
			parent := gen.SpanningTreeParent(g, int64(i*10+tr))
			want, err := respect.TwoRespect(g, parent, false, nil, nil)
			if err != nil {
				t.Fatalf("graph %d tree %d: respect: %v", i, tr, err)
			}
			f := scanTree(t, g, parent, tr%2 == 1, nil)
			if f.Value != want.Value {
				t.Fatalf("graph %d (n=%d m=%d) tree %d: abscan=%d respect=%d",
					i, g.N(), g.M(), tr, f.Value, want.Value)
			}
			// The witness partition must re-evaluate to the found value.
			inCut, err := Witness(g, parent, f, nil, nil)
			if err != nil {
				t.Fatalf("graph %d tree %d: witness: %v", i, tr, err)
			}
			if v := g.CutValue(inCut); v != f.Value {
				t.Fatalf("graph %d tree %d: witness re-evaluates to %d, found %d", i, tr, v, f.Value)
			}
		}
	}
}

// shape is a handcrafted graph and spanning tree with its known answer.
type shape struct {
	name   string
	g      *graph.Graph
	parent []int32
	want   int64
}

// handcraftedShapes are the decomposition's edge cases: the 2-vertex
// tree (no 2-respecting pair exists), stars (every heavy path has
// length 1), paths (one heavy path), and multigraphs with parallel
// edges and self-loops.
func handcraftedShapes(t *testing.T) []shape {
	t.Helper()
	build := func(n int, edges [][3]int64) *graph.Graph {
		g := graph.New(n)
		for _, e := range edges {
			if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
		return g
	}
	return []shape{
		{
			name:   "two vertices",
			g:      build(2, [][3]int64{{0, 1, 7}}),
			parent: []int32{-1, 0},
			want:   7,
		},
		{
			name:   "parallel edges",
			g:      build(2, [][3]int64{{0, 1, 3}, {0, 1, 4}}),
			parent: []int32{-1, 0},
			want:   7,
		},
		{
			name: "star with a weak spoke",
			g: build(5, [][3]int64{
				{0, 1, 9}, {0, 2, 9}, {0, 3, 9}, {0, 4, 1},
			}),
			parent: []int32{-1, 0, 0, 0, 0},
			want:   1,
		},
		{
			name: "path graph, interior pair",
			// 0-1-2-3 path weights 5,1,5 plus chord 0-3 of weight 2: best
			// ≤2-respecting cut of the path tree cuts {1-2} and the chord.
			g: build(4, [][3]int64{
				{0, 1, 5}, {1, 2, 1}, {2, 3, 5}, {0, 3, 2},
			}),
			parent: []int32{-1, 0, 1, 2},
			want:   3,
		},
		{
			name: "self loops ignored",
			g: build(3, [][3]int64{
				{0, 1, 2}, {1, 2, 3}, {1, 1, 50}, {0, 2, 1},
			}),
			parent: []int32{-1, 0, 1},
			want:   3,
		},
	}
}

// TestScanHandcraftedShapes checks the handcrafted shapes against their
// known answers and against the bough-decomposition scan.
func TestScanHandcraftedShapes(t *testing.T) {
	t.Parallel()
	for _, c := range handcraftedShapes(t) {
		f := scanTree(t, c.g, c.parent, false, nil)
		if f.Value != c.want {
			t.Errorf("%s: value = %d, want %d", c.name, f.Value, c.want)
		}
		want, err := respect.TwoRespect(c.g, c.parent, false, nil, nil)
		if err != nil {
			t.Fatalf("%s: respect: %v", c.name, err)
		}
		if f.Value != want.Value {
			t.Errorf("%s: abscan=%d respect=%d", c.name, f.Value, want.Value)
		}
	}
}

// findingsGolden is the FNV-1a digest TestScanFindingsGolden computes.
// It moves only if some Finding does: a new value, or a new tie-break
// among equal values, which picks a different returned partition.
const findingsGolden = uint64(0xff0fd9d7dd1b28c3)

// TestScanFindingsGolden pins every Finding bit for bit, provenance
// included: the value tests compare values only, and the mode and width
// test compares the scan with itself, so a kernel change that broke a
// tie differently would pass both. The trees come from the generator,
// not from the packing, so a packing change cannot move the digest:
// random spanning trees of sparse-workload-shaped graphs (n=520, m=2n,
// w≤100), a 1024-cycle, the handcrafted shapes, and random multigraphs
// with self-loops and parallel copies.
func TestScanFindingsGolden(t *testing.T) {
	t.Parallel()
	h := fnv.New64a()
	trees := 0
	record := func(g *graph.Graph, parent []int32) {
		f := scanTree(t, g, parent, false, nil)
		var b [17]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(f.Value))
		b[8] = f.kind
		binary.LittleEndian.PutUint32(b[9:], uint32(f.u))
		binary.LittleEndian.PutUint32(b[13:], uint32(f.v))
		h.Write(b[:])
		trees++
	}
	for i := int64(0); i < 4; i++ {
		g := gen.RandomConnected(520, 1040, 100, 1+i)
		for tr := int64(0); tr < 8; tr++ {
			record(g, gen.SpanningTreeParent(g, 10*i+tr))
		}
	}
	ring, _, err := gen.FromSpec("cycle:n=1024,w=50", 1)
	if err != nil {
		t.Fatal(err)
	}
	for tr := int64(0); tr < 4; tr++ {
		record(ring, gen.SpanningTreeParent(ring, tr))
	}
	for _, c := range handcraftedShapes(t) {
		record(c.g, c.parent)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 12; i++ {
		n := 2 + rng.Intn(60)
		g := gen.RandomConnected(n, n-1+rng.Intn(3*n), 20, int64(700+i))
		at := make([]int32, 1+n/4)
		for j := range at {
			at[j] = int32(rng.Intn(n))
		}
		addLoopsAndCopies(t, g, at, rng)
		for tr := int64(0); tr < 3; tr++ {
			record(g, gen.SpanningTreeParent(g, int64(i)*10+tr))
		}
	}
	if got := h.Sum64(); got != findingsGolden {
		t.Fatalf("digest of %d findings = %#x, want %#x", trees, got, findingsGolden)
	}
}

// TestScanModesAndWidthsIdentical: the sequential sweep, the chunked
// parallel-paths sweep, and every pool width produce bit-identical
// findings (value and provenance).
func TestScanModesAndWidthsIdentical(t *testing.T) {
	t.Parallel()
	g := gen.RandomConnected(90, 700, 40, 31)
	parent := gen.SpanningTreeParent(g, 8)
	ref := scanTree(t, g, parent, false, nil)
	for _, w := range []int{1, 2, 7} {
		pool := par.NewPool(w)
		for _, pp := range []bool{false, true} {
			f := scanTree(t, g, parent, pp, pool)
			if !reflect.DeepEqual(f, ref) {
				t.Fatalf("width %d parallelPaths=%v: finding %+v differs from reference %+v", w, pp, f, ref)
			}
		}
		pool.Close()
	}
}

// TestScanCancellation: a canceled context aborts the sweep between
// heavy paths, in both path-scheduling modes.
func TestScanCancellation(t *testing.T) {
	t.Parallel()
	g := gen.RandomConnected(60, 300, 20, 77)
	parent := gen.SpanningTreeParent(g, 1)
	adj := g.BuildAdj()
	deg := g.WeightedDegrees()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pp := range []bool{false, true} {
		if _, err := Scan(ctx, g, adj, deg, parent, pp, nil, nil, nil, trace.SpanRef{}); err == nil {
			t.Fatalf("parallelPaths=%v: Scan on a canceled context succeeded", pp)
		}
	}
}

// TestScanMeters: the scan charges deterministic work/depth to the meter
// regardless of mode, so engine-level metering stays width-invariant.
func TestScanMeters(t *testing.T) {
	t.Parallel()
	g := gen.RandomConnected(50, 200, 10, 5)
	parent := gen.SpanningTreeParent(g, 2)
	adj := g.BuildAdj()
	deg := g.WeightedDegrees()
	var m1, m2 wd.Meter
	if _, err := Scan(context.Background(), g, adj, deg, parent, false, nil, &m1, nil, trace.SpanRef{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(context.Background(), g, adj, deg, parent, true, nil, &m2, nil, trace.SpanRef{}); err != nil {
		t.Fatal(err)
	}
	if m1.Work() == 0 || m1.Depth() == 0 {
		t.Fatalf("meter not charged: work=%d depth=%d", m1.Work(), m1.Depth())
	}
	if m1.Work() != m2.Work() || m1.Depth() != m2.Depth() {
		t.Fatalf("meter differs across modes: (%d,%d) vs (%d,%d)", m1.Work(), m1.Depth(), m2.Work(), m2.Depth())
	}
}

// newLadder allocates a ladder over vals, as newSweep does from the arena.
func newLadder(vals []int64) *ladder {
	base := 1
	for base < len(vals) {
		base *= 2
	}
	lad := &ladder{minv: make([]int64, 2*base), lazy: make([]int64, 2*base)}
	lad.reset(vals)
	return lad
}

// checkLadder compares the ladder with the plain array it mirrors: for
// every position p, minAfter(p) must return the minimum over the real
// positions after p, (p, len(vals)−1], or (maxValue, 0) when none is
// left, and leftmost of the node it returns must be the leftmost
// position holding that minimum.
func checkLadder(lad *ladder, vals []int64) error {
	// want is the leftmost argmin over the real positions after p, built
	// right to left; -1 when there are none.
	want := -1
	for p := len(vals) - 1; p >= 0; p-- {
		m, x := lad.minAfter(p)
		if want < 0 {
			if m != maxValue || x != 0 {
				return fmt.Errorf("minAfter(%d) = (%d, node %d), want (maxValue, 0)", p, m, x)
			}
		} else if at := lad.leftmost(x); m != vals[want] || at != want {
			return fmt.Errorf("minAfter(%d) = (%d, node %d leftmost at %d), want (%d, %d)",
				p, m, x, at, vals[want], want)
		}
		if p >= 1 && (want < 0 || vals[p] <= vals[want]) {
			want = p
		}
	}
	return nil
}

// TestLadderMatchesNaive drives the ladder kernel against a plain array:
// random range adds over the real positions [1, n−1], with small deltas
// of both signs so ties are common, and at n = 1024 also every
// node-aligned range [k·2^j, (k+1)·2^j − 1] inside [1, n−1], where the
// add lands on a single node (the split node of its own range). After
// every add, checkLadder must hold.
func TestLadderMatchesNaive(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 5, 8, 9, 520, 1024} {
		vals := make([]int64, n)
		for p := 1; p < n; p++ {
			vals[p] = rng.Int63n(4)
		}
		lad := newLadder(vals)
		i := 0
		add := func(l, r int, delta int64) {
			lad.add(l, r, delta)
			for p := l; p <= r; p++ {
				vals[p] += delta
			}
			if err := checkLadder(lad, vals); err != nil {
				t.Fatalf("n=%d after add %d [%d,%d]%+d: %v", n, i, l, r, delta, err)
			}
			i++
		}
		adds := 200
		if n > 100 {
			adds = 30
		}
		for k := 0; k < adds; k++ {
			l := 1 + rng.Intn(n-1)
			r := l + rng.Intn(n-l)
			add(l, r, rng.Int63n(7)-3)
		}
		if n != 1024 {
			continue
		}
		for w := 1; w < n; w *= 2 {
			for l := w; l+w <= n; l += w {
				add(l, l+w-1, rng.Int63n(7)-3)
			}
		}
	}
}

// FuzzLadder drives the ladder with a decoded sequence of range adds and
// runs checkLadder after every one. The first byte picks n in [2, 64];
// every following triple of bytes is one add: l in [1, n−1], r in
// [l, n−1] and δ in [−3, 3], small so that ties are common. Run it
// beyond its seeds with
//
//	go test ./internal/abscan -run '^$' -fuzz '^FuzzLadder$' -fuzztime 30s
func FuzzLadder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 6})          // n=2: the one real position, +3
	f.Add([]byte{3, 1, 1, 1})          // n=5: [2,3]−2, the range of node 5
	f.Add([]byte{6, 3, 3, 0, 1, 1, 1}) // n=8: [4,7]−3, then [2,3]−2: node ranges
	f.Add([]byte{62, 9, 40, 2, 0, 62, 5, 31, 0, 3, 17, 1, 6, 44, 3, 2, 2, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := 2 + int(in[0])%63
		vals := make([]int64, n)
		lad := newLadder(vals)
		for i := 1; i+3 <= len(in); i += 3 {
			l := 1 + int(in[i])%(n-1)
			r := l + int(in[i+1])%(n-l)
			delta := int64(in[i+2]%7) - 3
			lad.add(l, r, delta)
			for p := l; p <= r; p++ {
				vals[p] += delta
			}
			if err := checkLadder(lad, vals); err != nil {
				t.Fatalf("n=%d after add %d [%d,%d]%+d: %v", n, i/3, l, r, delta, err)
			}
		}
	})
}

// sweepPaths builds parent's decomposition and one sweep over g, with
// the weighted degrees as leaf values, and runs every heavy path on it in
// position order, as Scan's sequential mode does, calling each (if not
// nil) after every path. It returns the sweep's count of range adds.
func sweepPaths(t testing.TB, g *graph.Graph, parent []int32, each func(d *decomposition, sw *sweep, hd int32)) int {
	t.Helper()
	ar := par.Default().Arena()
	d, put, err := buildDecomposition(parent, ar)
	if err != nil {
		t.Fatal(err)
	}
	defer put()
	sw, putSweep := newSweep(d, g.BuildAdj(), g.WeightedDegrees(), ar)
	defer putSweep()
	for p := 0; p < d.n; p++ {
		if hd := d.order[p]; d.head[hd] == hd {
			sw.runPath(hd)
			if each != nil {
				each(d, sw, hd)
			}
		}
	}
	return sw.adds
}

// ladderAt is the value of position p: its leaf plus the lazy sums above.
func ladderAt(lad *ladder, p int) int64 {
	x := lad.base + p
	v := lad.minv[x]
	for x >>= 1; x >= 1; x >>= 1 {
		v += lad.lazy[x]
	}
	return v
}

// TestLadderRestoredAfterEveryPath pins the tail-only restore: after
// each runPath, every position after the path's tail reads its reset
// value, and minAfter(p) for every p from the tail on answers as on a
// freshly reset ladder, value and leftmost position alike. Those are
// the only positions a later path reads; positions up to the tail may
// keep the residue of updates clipped away from them. Every tree leaf
// carries a self-loop and a parallel copy of one of its edges, the edges
// the restore must skip or retire once each.
func TestLadderRestoredAfterEveryPath(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		n := 2 + rng.Intn(80)
		g := gen.RandomConnected(n, n-1+rng.Intn(2*n), 20, int64(500+i))
		parent := gen.SpanningTreeParent(g, int64(i))
		isLeaf := make([]bool, n)
		for v := range isLeaf {
			isLeaf[v] = true
		}
		for _, p := range parent {
			if p >= 0 {
				isLeaf[p] = false
			}
		}
		var leaves []int32
		for v, leaf := range isLeaf {
			if leaf {
				leaves = append(leaves, int32(v))
			}
		}
		addLoopsAndCopies(t, g, leaves, rng)

		var fresh *ladder
		sweepPaths(t, g, parent, func(d *decomposition, sw *sweep, hd int32) {
			if fresh == nil {
				vals := make([]int64, n)
				for p := range vals {
					vals[p] = sw.c[d.order[p]]
				}
				fresh = newLadder(vals)
			}
			tail := hd
			for d.heavy[tail] >= 0 {
				tail = d.heavy[tail]
			}
			for p := int(d.tin[tail]); p < n; p++ {
				if p > int(d.tin[tail]) {
					if got, want := ladderAt(sw.lad, p), ladderAt(fresh, p); got != want {
						t.Fatalf("graph %d (n=%d m=%d), path at %d: position %d reads %d, reset value %d",
							i, n, g.M(), hd, p, got, want)
					}
				}
				m, x := sw.lad.minAfter(p)
				fm, fx := fresh.minAfter(p)
				if m != fm || (x == 0) != (fx == 0) || (x != 0 && sw.lad.leftmost(x) != fresh.leftmost(fx)) {
					t.Fatalf("graph %d (n=%d m=%d), path at %d: minAfter(%d) = (%d, node %d), fresh ladder (%d, node %d)",
						i, n, g.M(), hd, p, m, x, fm, fx)
				}
			}
		})
	}
}

// sparseAddsGolden is the total count of ladder range adds over
// BenchmarkScan's sparse trees. It moves whenever the sweep's work does;
// a change that moves it re-records it and says why.
const sparseAddsGolden = 163327

// TestSweepClipsRangeAdds pins the clip as a count, since a sweep that
// dropped it would find the same cuts. Every spanning tree of a
// 1024-cycle is a path: each tree edge's update lands on that edge's own
// position, at or before the edge fixed next, so the clip drops it and
// only the one non-tree edge's updates remain, at most 4 range adds per
// tree (about 2,050 unclipped). The total over BenchmarkScan's sparse
// trees, which depends on the packing as well, is pinned exactly.
func TestSweepClipsRangeAdds(t *testing.T) {
	t.Parallel()
	ring, _, err := gen.FromSpec("cycle:n=1024,w=50", 1)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([][2]int32, 0, ring.M())
	for cut := 0; cut < ring.M(); cut++ {
		edges = edges[:0]
		for i := 0; i < ring.M(); i++ {
			if e := ring.Edge(i); i != cut {
				edges = append(edges, [2]int32{e.U, e.V})
			}
		}
		parent, err := tree.RootEdgeList(ring.N(), edges, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if adds := sweepPaths(t, ring, parent, nil); adds > 4 {
			t.Fatalf("ring without edge %d: %d range adds, want at most 4", cut, adds)
		}
	}
	g, parents := packedTrees(t, "random:n=520,m=1040,w=100")
	total := 0
	for _, parent := range parents {
		total += sweepPaths(t, g, parent, nil)
	}
	if total != sparseAddsGolden {
		t.Fatalf("%d range adds over %d sparse trees, want %d", total, len(parents), sparseAddsGolden)
	}
}

// fuzzTree decodes data into a multigraph on 2 to 16 vertices and a
// spanning tree of it. data[0] picks n; the next n−1 bytes shuffle the
// vertices (a Fisher–Yates step each), and the first in that order is
// the root; then each later vertex takes a byte pair: its parent, one
// of the vertices before it in the order, and the weight of its tree
// edge. Paths, stars and caterpillars all decode this way. Every
// remaining byte triple is one more edge (u, v, w), self-loops and
// parallel edges included. Weights lie in [1, 4], so ties are common.
// Missing bytes read as 0. Every vertex is in range and every weight
// small and positive, so AddEdge cannot fail.
func fuzzTree(data []byte) (*graph.Graph, []int32) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%15
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	for k := 0; k < n-1; k++ {
		j := k + next()%(n-k)
		order[k], order[j] = order[j], order[k]
	}
	g := graph.New(n)
	parent := make([]int32, n)
	parent[order[0]] = -1
	for k := 1; k < n; k++ {
		p := order[next()%k]
		parent[order[k]] = p
		w := 1 + int64(next()%4)
		_ = g.AddEdge(int(order[k]), int(p), w)
	}
	for len(data) >= 3 {
		u, v, w := next()%n, next()%n, 1+int64(next()%4)
		_ = g.AddEdge(u, v, w)
	}
	return g, parent
}

// bruteTreeCut is the minimum over every cut crossing one or two edges
// of the tree: v↓ for each non-root v, and v↓ xor u↓ for each pair.
func bruteTreeCut(g *graph.Graph, parent []int32) int64 {
	n := g.N()
	inSub := func(v, x int32) bool {
		for ; x >= 0; x = parent[x] {
			if x == v {
				return true
			}
		}
		return false
	}
	best := maxValue
	side := make([]bool, n)
	for v := int32(0); v < int32(n); v++ {
		for u := v; u < int32(n); u++ {
			if parent[v] < 0 || parent[u] < 0 {
				continue
			}
			for x := range side {
				side[x] = inSub(v, int32(x)) != (u != v && inSub(u, int32(x)))
			}
			best = min(best, g.CutValue(side))
		}
	}
	return best
}

// FuzzScan checks Scan on fuzzed multigraphs of at most 16 vertices and
// byte-chosen spanning trees (see fuzzTree), in both path modes: its
// value must equal a brute force over every 1- and 2-edge tree cut, and
// Witness must weigh exactly that value. Run it beyond its seeds with
//
//	go test ./internal/abscan -run '^$' -fuzz '^FuzzScan$' -fuzztime 30s
func FuzzScan(f *testing.F) {
	f.Add([]byte{0})                                        // n=2, one tree edge
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3}) // n=8, a star at 0
	// n=8, the path 0-1-…-7 with a chord, a self-loop and a parallel copy.
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 0, 4, 1, 5, 2, 6, 3,
		0, 7, 1, 3, 3, 2, 4, 5, 0})
	// n=12 on a shuffled order: a caterpillar, its spine the first six
	// vertices and one leaf on each, plus a chord, a self-loop and a
	// parallel pair.
	f.Add([]byte{10, 5, 3, 9, 1, 0, 7, 2, 2, 1, 0, 4,
		0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 0, 3, 1, 0, 2, 1, 3, 2, 4, 3, 5, 0,
		0, 11, 2, 5, 5, 1, 3, 9, 3, 3, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, parent := fuzzTree(data)
		want := bruteTreeCut(g, parent)
		for _, pp := range []bool{false, true} {
			f := scanTree(t, g, parent, pp, nil)
			if f.Value != want {
				t.Fatalf("n=%d m=%d parent=%v parallelPaths=%v: value %d, brute force %d",
					g.N(), g.M(), parent, pp, f.Value, want)
			}
			inCut, err := Witness(g, parent, f, nil, nil)
			if err != nil {
				t.Fatalf("witness: %v", err)
			}
			if v := g.CutValue(inCut); v != f.Value {
				t.Fatalf("n=%d m=%d parent=%v parallelPaths=%v: witness weighs %d, found %d",
					g.N(), g.M(), parent, pp, v, f.Value)
			}
		}
	})
}
