package abscan

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/respect"
	"repro/internal/trace"
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
// every position p, minExcept(p) must return the minimum over the other
// real positions [1, len(vals)−1], or maxValue when none is left, and
// leftmost of the node it returns must be the leftmost position holding
// that minimum.
func checkLadder(lad *ladder, vals []int64) error {
	// best is the leftmost argmin over the real positions and second the
	// leftmost argmin over the others, so minExcept(best) answers second.
	best, second := -1, -1
	for q := 1; q < len(vals); q++ {
		if best < 0 || vals[q] < vals[best] {
			best, second = q, best
		} else if second < 0 || vals[q] < vals[second] {
			second = q
		}
	}
	for p := range vals {
		want := best
		if p == best {
			want = second
		}
		m, x := lad.minExcept(p)
		if want < 0 {
			if m != maxValue {
				return fmt.Errorf("minExcept(%d) = %d, want maxValue", p, m)
			}
			continue
		}
		if at := lad.leftmost(x); m != vals[want] || at != want {
			return fmt.Errorf("minExcept(%d) = (%d, node %d leftmost at %d), want (%d, %d)",
				p, m, x, at, vals[want], want)
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

// TestLadderRestoredAfterEveryPath pins the tail-only restore: after
// each runPath the ladder's minv and lazy equal a freshly reset
// ladder's, entry for entry. Every tree leaf carries a self-loop and a
// parallel copy of one of its edges, the edges the restore must skip or
// retire once each.
func TestLadderRestoredAfterEveryPath(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	ar := par.Default().Arena()
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

		d, put, err := buildDecomposition(parent, ar)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		adj := g.BuildAdj()
		c := g.WeightedDegrees() // any leaf values do: the restore does not depend on them
		sw, putSweep := newSweep(d, adj, c, ar)
		fresh, putFresh := newSweep(d, adj, c, ar)
		for p := 0; p < n; p++ {
			hd := d.order[p]
			if d.head[hd] != hd {
				continue
			}
			sw.runPath(hd)
			// Node 0 is unused and holds whatever the arena left there.
			got, want := sw.lad, fresh.lad
			if got.base != want.base || !slices.Equal(got.minv[1:], want.minv[1:]) ||
				!slices.Equal(got.lazy[1:], want.lazy[1:]) {
				t.Fatalf("graph %d (n=%d m=%d): ladder not restored after the heavy path at %d", i, n, g.M(), hd)
			}
		}
		putFresh()
		putSweep()
		put()
	}
}
