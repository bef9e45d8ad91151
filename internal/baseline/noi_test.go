package baseline

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
)

// nagamochiIbarakiGolden is the FNV-1a digest TestNagamochiIbarakiGolden
// computes. It moves only if some (Value, InCut) does.
const nagamochiIbarakiGolden = uint64(0x5c3d1d06124bd58b)

// solveNI runs NagamochiIbaraki with no pool, sink or span.
func solveNI(g *graph.Graph) (int64, []bool, error) {
	return NagamochiIbaraki(context.Background(), g, nil, nil, trace.SpanRef{})
}

// checkNI fails t unless NagamochiIbaraki returns StoerWagner's value on
// g, and a proper side that weighs it.
func checkNI(t *testing.T, name string, g *graph.Graph) int64 {
	t.Helper()
	want, _, err := StoerWagner(g)
	if err != nil {
		t.Fatalf("%s: StoerWagner: %v", name, err)
	}
	got, side, err := solveNI(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got != want {
		t.Fatalf("%s: value %d, StoerWagner %d", name, got, want)
	}
	if len(side) != g.N() {
		t.Fatalf("%s: side has %d entries for %d vertices", name, len(side), g.N())
	}
	in := 0
	for _, b := range side {
		if b {
			in++
		}
	}
	if in == 0 || in == g.N() {
		t.Fatalf("%s: side holds %d of %d vertices", name, in, g.N())
	}
	if v := g.CutValue(side); v != got {
		t.Fatalf("%s: side weighs %d, value %d", name, v, got)
	}
	return got
}

// niFuzzGraph decodes data into a multigraph on 2 to 32 vertices. data[0]
// picks n. Bit 0 of data[1] draws weights in [1, 3], so that cuts tie;
// otherwise they are in [1, 256]. Bit 1 shifts every weight left by 30
// bits, so the total approaches graph.MaxTotalWeight. Each following byte
// triple is one edge (u, v, w), with u and v taken mod n. Self-loops,
// parallel copies, isolated vertices and disconnected graphs all decode as
// they are; an edge that would push the total past MaxTotalWeight is
// dropped. ok is false when data is too short to name n and the mode.
func niFuzzGraph(data []byte) (g *graph.Graph, ok bool) {
	if len(data) < 2 {
		return nil, false
	}
	n := 2 + int(data[0])%31
	ties, heavy := data[1]&1 == 1, data[1]&2 == 2
	g = graph.New(n)
	for i := 2; i+2 < len(data); i += 3 {
		w := 1 + int64(data[i+2])
		if ties {
			w = 1 + int64(data[i+2])%3
		}
		if heavy {
			w <<= 30
		}
		// AddEdge rejects only weights past the total bound here.
		_ = g.AddEdge(int(data[i])%n, int(data[i+1])%n, w)
	}
	return g, true
}

// FuzzNagamochiIbaraki checks the kernel on byte-chosen multigraphs of at
// most 32 vertices: its value equals StoerWagner's, and BruteForce's up
// to 12 vertices, and its side is proper and weighs the value.
func FuzzNagamochiIbaraki(f *testing.F) {
	// A triangle with a doubled edge and a self-loop.
	f.Add([]byte{1, 0, 0, 1, 3, 1, 2, 5, 2, 0, 2, 0, 1, 4, 1, 1, 9})
	// Two components joined by nothing, and vertex 6 isolated.
	f.Add([]byte{5, 0, 0, 1, 7, 1, 2, 7, 3, 4, 1, 4, 5, 2})
	// Heavy: eight edges of 2^38 fill 2^41 of weight, so the last four
	// are dropped at the 2^40 bound.
	f.Add([]byte{2, 2, 0, 1, 255, 1, 2, 255, 2, 3, 255, 3, 0, 255, 0, 2, 255, 1, 3, 255, 0, 0, 255, 2, 2, 255})
	// A 12-cycle of equal weights: every pass certifies one pair.
	f.Add([]byte{10, 1, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8, 0, 8, 9, 0, 9, 10, 0, 10, 11, 0, 11, 0, 0})
	// Two vertices and no edges.
	f.Add([]byte{0, 0})
	// 32 vertices, ties: a heavy pair {1, 3}, three triangles and a path.
	f.Add([]byte{
		30, 1, 1, 3, 2, 1, 3, 2, 0, 1, 1, 3, 4, 0, 4, 5, 2, 5, 6, 2, 6, 4, 2,
		7, 8, 1, 8, 9, 1, 9, 7, 1, 10, 11, 0, 11, 12, 0, 12, 13, 0, 13, 31, 1,
		31, 0, 2, 20, 20, 2, 4, 9, 0, 12, 3, 1,
	})
	// Heavy ties: a 4-clique of 3·2^30 with one pendant vertex.
	f.Add([]byte{3, 3, 0, 1, 2, 0, 2, 2, 0, 3, 2, 1, 2, 2, 1, 3, 2, 2, 3, 2, 3, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := niFuzzGraph(data)
		if !ok {
			return
		}
		got := checkNI(t, "fuzz", g)
		if g.N() > 12 {
			return
		}
		want, _, err := BruteForce(g)
		if err != nil {
			t.Fatalf("BruteForce: %v", err)
		}
		if got != want {
			t.Fatalf("value %d, BruteForce %d", got, want)
		}
	})
}

// TestNagamochiIbarakiFamilies checks the kernel against StoerWagner on
// the generator families: cycles of equal weights, unit cliques and tori,
// dumbbells, planted cuts (whose value is also known), and the cutbench
// dense and sparse workloads' shapes.
func TestNagamochiIbarakiFamilies(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 64, 300} {
		ring := make([]int64, n)
		for i := range ring {
			ring[i] = 5
		}
		checkNI(t, "cycle", gen.Cycle(ring).G)
	}
	for _, n := range []int{2, 17, 90} {
		checkNI(t, "clique", gen.Clique(n, 1, int64(n)))
	}
	for _, rc := range [][2]int{{3, 3}, {6, 9}, {16, 16}} {
		checkNI(t, "torus", gen.Grid(rc[0], rc[1], true, 1, 1))
	}
	for seed := int64(0); seed < 3; seed++ {
		checkNI(t, "dumbbell", gen.Dumbbell(6+int(seed), 1+seed, seed).G)
		p := gen.PlantedCut(20, 14, 2+int(seed), seed)
		if got := checkNI(t, "planted", p.G); got != p.CutValue {
			t.Fatalf("planted seed %d: value %d, planted %d", seed, got, p.CutValue)
		}
		checkNI(t, "dense", gen.RandomConnected(256, 8192, 100, 1+seed))
		checkNI(t, "sparse", gen.RandomConnected(520, 1040, 100, 1+seed))
	}
}

// TestNagamochiIbarakiGolden pins the kernel's (Value, InCut) bit for bit
// over TestStoerWagnerGolden's graphs, so a change that breaks a tie in
// the ordering, a certified merge or a candidate differently fails even
// when every value is right.
func TestNagamochiIbarakiGolden(t *testing.T) {
	t.Parallel()
	h := fnv.New64a()
	graphs := goldenGraphs(t)
	for _, g := range graphs {
		v, side, err := solveNI(g)
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
		bits := make([]byte, len(side))
		for i, in := range side {
			if in {
				bits[i] = 1
			}
		}
		h.Write(bits)
	}
	if got := h.Sum64(); got != nagamochiIbarakiGolden {
		t.Fatalf("digest of %d results = %#x, want %#x", len(graphs), got, nagamochiIbarakiGolden)
	}
}

// TestNagamochiIbarakiAllocs: every working array, the matrix included,
// comes from the executor's arena, so a steady-state solve allocates its
// returned side and nothing that grows with n.
func TestNagamochiIbarakiAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; the allocation bound holds only in normal builds")
	}
	pool := par.NewPool(1)
	defer pool.Close()
	allocs := func(n int) float64 {
		g := gen.RandomConnected(n, n*n/8, 100, 42)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := NagamochiIbaraki(context.Background(), g, pool, nil, trace.SpanRef{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(256)
	if small != large || large > 2 {
		t.Fatalf("allocations per solve: %v at n=64, %v at n=256; want the same count, at most 2", small, large)
	}
}

// TestNagamochiIbarakiMaterializesBest: the first pass unites the pair
// {1, 3} (weight 15), and the folded supernode's degree, 7, is the
// minimum cut. The next pass merges that supernode further, so a side
// read from its member chain at the end would weigh 18; the side must be
// copied out when the candidate is found.
func TestNagamochiIbarakiMaterializesBest(t *testing.T) {
	g := graph.New(5)
	for _, e := range [][3]int{{4, 2, 7}, {3, 1, 4}, {2, 0, 4}, {0, 4, 7}, {1, 3, 3}, {0, 3, 7}, {3, 1, 7}, {3, 1, 1}} {
		if err := g.AddEdge(e[0], e[1], int64(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	v, side, err := solveNI(g)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("value %d, want 7", v)
	}
	for u, in := range side {
		if in != (side[1] == (u == 1 || u == 3)) {
			t.Fatalf("side %v, want {1, 3} or its complement", side)
		}
	}
}

// TestNagamochiIbarakiProgress: a completed solve reads n−1 of n−1 merges
// on the tree counters, in the contract phase, and its span carries the
// pass count; a canceled context stops it with context.Canceled.
func TestNagamochiIbarakiProgress(t *testing.T) {
	for _, g := range []*graph.Graph{gen.RandomConnected(256, 8192, 100, 1), gen.Grid(8, 8, true, 1, 1), gen.Disconnected(5, 7, 1)} {
		var sink progress.Sink
		var spans []trace.Span
		rec := trace.NewRecorder("ni", 0, func(tr *trace.Trace) { spans = tr.Spans })
		root := rec.Start("solve")
		if _, _, err := NagamochiIbaraki(context.Background(), g, nil, &sink, root); err != nil {
			t.Fatal(err)
		}
		root.End()
		rec.Release()
		s := sink.Snapshot()
		if n := int64(g.N()); s.Phase != progress.PhaseContract || s.TreesDone != n-1 || s.TreesTotal != n-1 {
			t.Fatalf("n=%d: phase %v, merges %d of %d; want contract, %d of %d", n, s.Phase, s.TreesDone, s.TreesTotal, n-1, n-1)
		}
		passes := ""
		for _, sp := range spans {
			for _, a := range sp.Attrs {
				if sp.Name == "contract" && a.Key == "passes" {
					passes = a.Value
				}
			}
		}
		if passes == "" || passes == "0" {
			t.Fatalf("n=%d: contract span's passes = %q, want a positive count", g.N(), passes)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := NagamochiIbaraki(ctx, gen.Clique(8, 1, 1), nil, nil, trace.SpanRef{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve: err = %v, want context.Canceled", err)
	}
}
