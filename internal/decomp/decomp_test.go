package decomp

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
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

// validate checks the structural invariants of Lemma 7.
func validate(t *testing.T, tr *tree.Tree, d *Decomposition) {
	t.Helper()
	n := tr.N()
	seen := make([]bool, n)
	for pid, p := range d.Paths {
		if len(p) == 0 {
			t.Fatalf("path %d empty", pid)
		}
		for i, v := range p {
			if seen[v] {
				t.Fatalf("vertex %d in two paths", v)
			}
			seen[v] = true
			if d.PathOf[v] != int32(pid) || d.PosOf[v] != int32(i) {
				t.Fatalf("vertex %d: PathOf/PosOf inconsistent", v)
			}
			if i > 0 && tr.Parent[v] != p[i-1] {
				t.Fatalf("path %d not a downward chain at position %d", pid, i)
			}
		}
		if d.FrontParent[pid] != tr.Parent[p[0]] {
			t.Fatalf("path %d FrontParent mismatch", pid)
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			t.Fatalf("vertex %d missing from decomposition", v)
		}
	}
	// Lemma 7: every root-to-leaf path crosses at most log2(n)+1 paths.
	bound := int(wd.CeilLog2(n)) + 1
	if d.NumPhases > bound {
		t.Fatalf("phases %d exceed bound %d", d.NumPhases, bound)
	}
	for v := 0; v < n; v++ {
		crossed := map[int32]bool{}
		u := int32(v)
		for u != tree.None {
			crossed[d.PathOf[u]] = true
			u = tr.Parent[u]
		}
		if len(crossed) > bound {
			t.Fatalf("root path of %d crosses %d segments (> %d)", v, len(crossed), bound)
		}
	}
	// Walking up a path chain, phases strictly increase.
	for pid := range d.Paths {
		if fp := d.FrontParent[pid]; fp != tree.None {
			if d.PhaseOfPath[d.PathOf[fp]] <= d.PhaseOfPath[pid] {
				t.Fatalf("phase does not increase from path %d to its parent path", pid)
			}
		}
	}
}

func TestFigure11Boughs(t *testing.T) {
	// The tree of paper Figure 11 has 4 boughs. Reconstruction: root r
	// with child w0; w0 has two subtrees, one a single chain of two
	// vertices (one bough), the other a branching vertex with a chain of
	// two on one side and single leaves w5 on the other; plus r->w0 top
	// chain. We encode:
	//        0 (r)
	//        |
	//        1 (w0)
	//       / \
	//      2   3
	//     /|   |
	//    4 5   6
	//    |
	//    7
	parent := []int32{tree.None, 0, 1, 1, 2, 2, 3, 4}
	tr := mustTree(t, parent)
	paths, member := Boughs(tr, nil, nil, nil, trace.SpanRef{})
	// Boughs: {6,3} is not a bough (3's parent 1 has 2 children, and 3 has
	// only child 6 => subtree of 3 is chain {3,6}: 3 IS a bough member).
	// Members: 7,4 form a chain (4's subtree {4,7}), 5 alone, 3,6 chain.
	// Non-members: 2 (branching), 1, 0.
	wantMember := map[int32]bool{3: true, 4: true, 5: true, 6: true, 7: true}
	for v := int32(0); v < int32(tr.N()); v++ {
		if member[v] != wantMember[v] {
			t.Errorf("member[%d]=%v want %v", v, member[v], wantMember[v])
		}
	}
	if len(paths) != 3 {
		t.Fatalf("got %d boughs, want 3", len(paths))
	}
	// Check one concrete bough: top 3 then 6.
	found := false
	for _, p := range paths {
		if p[0] == 3 {
			found = true
			if len(p) != 2 || p[1] != 6 {
				t.Fatalf("bough at 3: %v", p)
			}
		}
	}
	if !found {
		t.Fatal("bough with front 3 missing")
	}
}

func TestDecomposePath(t *testing.T) {
	n := 64
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	tr := mustTree(t, parent)
	d := Decompose(tr, nil, nil)
	if d.NumPhases != 1 || len(d.Paths) != 1 {
		t.Fatalf("path tree: phases=%d paths=%d", d.NumPhases, len(d.Paths))
	}
	if len(d.Paths[0]) != n || d.Paths[0][0] != 0 {
		t.Fatalf("path tree: front=%d len=%d", d.Paths[0][0], len(d.Paths[0]))
	}
	validate(t, tr, d)
}

func TestDecomposeStar(t *testing.T) {
	n := 17
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = 0
	}
	tr := mustTree(t, parent)
	d := Decompose(tr, nil, nil)
	if d.NumPhases != 2 {
		t.Fatalf("star phases=%d want 2", d.NumPhases)
	}
	validate(t, tr, d)
}

func TestDecomposeCompleteBinary(t *testing.T) {
	// Complete binary tree of depth 9: phases should be about depth.
	depth := 9
	n := 1<<(depth+1) - 1
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32((i - 1) / 2)
	}
	tr := mustTree(t, parent)
	d := Decompose(tr, nil, nil)
	validate(t, tr, d)
	if d.NumPhases < depth/2 {
		t.Fatalf("suspiciously few phases: %d", d.NumPhases)
	}
}

func TestDecomposeSingle(t *testing.T) {
	tr := mustTree(t, []int32{tree.None})
	d := Decompose(tr, nil, nil)
	if d.NumPhases != 1 || len(d.Paths) != 1 || len(d.Paths[0]) != 1 {
		t.Fatalf("single vertex decomposition wrong: %+v", d)
	}
}

func TestDecomposeRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 2 + int(seed*709)%1200
		tr := mustTree(t, randomParent(n, seed))
		var m wd.Meter
		d := Decompose(tr, nil, &m)
		validate(t, tr, d)
		if m.Work() == 0 {
			t.Error("meter not updated")
		}
	}
}

func TestBoughsMatchDecomposePhase1(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		tr := mustTree(t, randomParent(300, seed))
		d := Decompose(tr, nil, nil)
		_, member := Boughs(tr, nil, nil, nil, trace.SpanRef{})
		for v := 0; v < tr.N(); v++ {
			if member[v] != (d.PhaseOf[v] == 1) {
				t.Fatalf("seed %d: vertex %d bough membership %v but phase %d", seed, v, member[v], d.PhaseOf[v])
			}
		}
	}
}
