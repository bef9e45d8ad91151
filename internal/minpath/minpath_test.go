package minpath

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tree"
	"repro/internal/wd"
)

func mustTree(t *testing.T, parent []int32) *tree.Tree {
	t.Helper()
	tr, err := tree.FromParent(parent, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomParent(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	parent := make([]int32, n)
	parent[perm[0]] = tree.None
	for i := 1; i < n; i++ {
		parent[perm[i]] = int32(perm[rng.Intn(i)])
	}
	return parent
}

func randomOps(n, k int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, k)
	for i := range ops {
		v := int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			ops[i] = MinOp(v)
		} else {
			ops[i] = AddOp(v, int64(rng.Intn(41)-20))
		}
	}
	return ops
}

func checkBatch(t *testing.T, tr *tree.Tree, w0 []int64, ops []Op) {
	t.Helper()
	want := NewNaive(tr, w0).Run(ops)
	s := New(tr, nil, nil)
	got := s.RunBatch(w0, ops, nil, nil)
	for i := range ops {
		if ops[i].Query && got[i] != want[i] {
			t.Fatalf("query op %d (vertex %d): got %d want %d", i, ops[i].Vertex, got[i], want[i])
		}
	}
}

// TestFigure3Operations pins the semantics of Figure 3: MinPath(v4)
// takes the minimum over the root path of v4; AddPath(v8, x) adds along
// the root path of v8.
func TestFigure3Operations(t *testing.T) {
	// Tree shaped like Figure 3 (1-based labels in the paper; 0-based
	// here, vertex i has weight w_{i+1} = 10*(i+1)):
	//        0
	//      / | \
	//     1  2  3
	//    / \    |
	//   4  5    7
	//   |
	//   6          (so v8 of the paper = vertex 7 here? we just need shape)
	parent := []int32{tree.None, 0, 0, 0, 1, 1, 4, 3}
	tr := mustTree(t, parent)
	w0 := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	s := New(tr, nil, nil)
	// MinPath(4): path 4 -> 1 -> 0: min(50, 20, 10) = 10.
	// AddPath(7, -100): path 7 -> 3 -> 0.
	// MinPath(3): path 3 -> 0: min(40-100, 10-100) = -90.
	ops := []Op{MinOp(4), AddOp(7, -100), MinOp(3), MinOp(6)}
	got := s.RunBatch(w0, ops, nil, nil)
	want := []int64{10, 0, -90, -90} // MinPath(6): 70,50,20,10-100 => -90
	for i, w := range want {
		if ops[i].Query && got[i] != w {
			t.Errorf("op %d: got %d want %d", i, got[i], w)
		}
	}
}

// TestFigure4PathDecomposition: operations decompose into at most
// log2(n)+1 prefix operations, one per crossed path.
func TestFigure4PathDecomposition(t *testing.T) {
	n := 1024
	tr := mustTree(t, randomParent(n, 5))
	s := New(tr, nil, nil)
	bound := int(wd.CeilLog2(n)) + 1
	if s.D.NumPhases > bound {
		t.Fatalf("decomposition has %d phases, bound %d", s.D.NumPhases, bound)
	}
	// Count segments crossed by a deep vertex's root path.
	deepest := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if tr.Depth[v] > tr.Depth[deepest] {
			deepest = v
		}
	}
	segs := map[int32]bool{}
	v := deepest
	for v != tree.None {
		segs[s.D.PathOf[v]] = true
		v = s.D.FrontParent[s.D.PathOf[v]]
	}
	if len(segs) > bound {
		t.Fatalf("root path crosses %d segments (bound %d)", len(segs), bound)
	}
}

func TestBatchOnPathTree(t *testing.T) {
	n := 100
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	tr := mustTree(t, parent)
	w0 := make([]int64, n)
	for i := range w0 {
		w0[i] = int64((i*37)%100 - 50)
	}
	checkBatch(t, tr, w0, randomOps(n, 300, 1))
}

func TestBatchOnStarAndSingle(t *testing.T) {
	star := make([]int32, 33)
	star[0] = tree.None
	for i := 1; i < 33; i++ {
		star[i] = 0
	}
	tr := mustTree(t, star)
	w0 := make([]int64, 33)
	for i := range w0 {
		w0[i] = int64(i % 7)
	}
	checkBatch(t, tr, w0, randomOps(33, 200, 2))

	single := mustTree(t, []int32{tree.None})
	checkBatch(t, single, []int64{42}, []Op{MinOp(0), AddOp(0, -1), MinOp(0)})
}

func TestBatchRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		n := 2 + int(seed*211)%400
		tr := mustTree(t, randomParent(n, seed))
		rng := rand.New(rand.NewSource(seed + 999))
		w0 := make([]int64, n)
		for i := range w0 {
			w0[i] = int64(rng.Intn(201) - 100)
		}
		checkBatch(t, tr, w0, randomOps(n, 1+int(seed*97)%500, seed+5))
	}
}

func TestRunBatchDoesNotMutateWeights(t *testing.T) {
	tr := mustTree(t, randomParent(50, 3))
	w0 := make([]int64, 50)
	for i := range w0 {
		w0[i] = int64(i)
	}
	saved := make([]int64, 50)
	copy(saved, w0)
	s := New(tr, nil, nil)
	s.RunBatch(w0, randomOps(50, 100, 7), nil, nil)
	for i := range w0 {
		if w0[i] != saved[i] {
			t.Fatal("RunBatch mutated the weight slice")
		}
	}
}

func TestStructureReuseAcrossBatches(t *testing.T) {
	tr := mustTree(t, randomParent(120, 11))
	s := New(tr, nil, nil)
	rng := rand.New(rand.NewSource(13))
	for batch := 0; batch < 4; batch++ {
		w0 := make([]int64, 120)
		for i := range w0 {
			w0[i] = int64(rng.Intn(100))
		}
		ops := randomOps(120, 150, int64(batch)*71+17)
		want := NewNaive(tr, w0).Run(ops)
		got := s.RunBatch(w0, ops, nil, nil)
		for i := range ops {
			if ops[i].Query && got[i] != want[i] {
				t.Fatalf("batch %d op %d: got %d want %d", batch, i, got[i], want[i])
			}
		}
	}
}

type quickCase struct {
	Seed int64
	N, K uint8
}

// Generate implements quick.Generator.
func (quickCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickCase{Seed: rng.Int63(), N: uint8(rng.Intn(120)), K: uint8(rng.Intn(200))})
}

// TestQuickMatchesNaive: property test across random trees, weights, and
// batches (Lemma 9 correctness).
func TestQuickMatchesNaive(t *testing.T) {
	property := func(c quickCase) bool {
		n := 1 + int(c.N)
		k := int(c.K)
		tr, err := tree.FromParent(randomParent(n, c.Seed), nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(c.Seed + 1))
		w0 := make([]int64, n)
		for i := range w0 {
			w0[i] = int64(rng.Intn(101) - 50)
		}
		ops := randomOps(n, k, c.Seed+2)
		want := NewNaive(tr, w0).Run(ops)
		got := New(tr, nil, nil).RunBatch(w0, ops, nil, nil)
		for i := range ops {
			if ops[i].Query && got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(424242))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDepthWithinLemma9: a batch's metered depth stays within Lemma
// 9's bound ⌈lg n⌉(⌈lg n⌉+⌈lg k⌉) on random trees with n = 2^12, 2^14 and
// 2^16 and batches of k = n/2 and 2n operations, the shapes paperbench's
// E3 runs. The per-segment Minimum Prefix batches run in parallel, so
// their depths compose as parallel branches; summed instead, they read
// thousands to hundreds of thousands on these shapes.
func TestBatchDepthWithinLemma9(t *testing.T) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		tr := mustTree(t, randomParent(n, 11))
		s := New(tr, nil, nil)
		w0 := make([]int64, n)
		for _, k := range []int{n / 2, 2 * n} {
			var m wd.Meter
			s.RunBatch(w0, randomOps(n, k, 13), nil, &m)
			bound := wd.CeilLog2(n) * (wd.CeilLog2(n) + wd.CeilLog2(k))
			if m.Depth() > bound {
				t.Errorf("n=%d k=%d: batch depth %d exceeds Lemma 9's bound %d", n, k, m.Depth(), bound)
			}
		}
	}
}
