package packing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/mst"
	"repro/internal/par"
	"repro/internal/trace"
)

func TestBinomialBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := binomial(0, 0.5, 100, rng); got != 0 {
		t.Errorf("binomial(0)=%d", got)
	}
	if got := binomial(10, 0, 100, rng); got != 0 {
		t.Errorf("p=0 gave %d", got)
	}
	if got := binomial(10, 1, 100, rng); got != 10 {
		t.Errorf("p=1 gave %d", got)
	}
	if got := binomial(10, 1, 4, rng); got != 4 {
		t.Errorf("cap ignored: %d", got)
	}
	// Statistical sanity: mean of Binomial(1000, 0.3) is 300.
	var sum int64
	const trials = 300
	for i := 0; i < trials; i++ {
		sum += binomial(1000, 0.3, 1<<30, rng)
	}
	mean := float64(sum) / trials
	if mean < 270 || mean > 330 {
		t.Errorf("binomial mean %.1f, want ≈300", mean)
	}
}

// isSpanningTree verifies that the edge indices form a spanning tree of g.
func isSpanningTree(g *graph.Graph, idxs []int32) bool {
	if len(idxs) != g.N()-1 {
		return false
	}
	edges := make([]graph.Edge, len(idxs))
	for i, ei := range idxs {
		edges[i] = g.Edge(int(ei))
	}
	return mst.Components(g.N(), edges, nil, nil) == 1
}

// respects counts how many tree edges cross the cut.
func respects(g *graph.Graph, idxs []int32, inCut []bool) int {
	crossing := 0
	for _, ei := range idxs {
		e := g.Edge(int(ei))
		if inCut[e.U] != inCut[e.V] {
			crossing++
		}
	}
	return crossing
}

func TestSampleTreesAreSpanningTrees(t *testing.T) {
	g := gen.RandomConnected(64, 256, 20, 5)
	res, err := SampleTrees(g, Options{Seed: 42}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 {
		t.Fatal("no trees sampled")
	}
	for i, tr := range res.Trees {
		if !isSpanningTree(g, tr) {
			t.Fatalf("tree %d is not a spanning tree", i)
		}
	}
	if res.PackValue <= 0 {
		t.Fatalf("pack value %f", res.PackValue)
	}
}

// TestPackingRespectsPlantedCut is experiment E6: with high probability at
// least one sampled tree crosses the (known) minimum cut at most twice.
func TestPackingRespectsPlantedCut(t *testing.T) {
	failures := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		p := gen.PlantedCut(24, 20, 3, seed)
		res, err := SampleTrees(p.G, Options{Seed: seed * 31}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		good := false
		for _, tr := range res.Trees {
			if respects(p.G, tr, p.InCut) <= 2 {
				good = true
				break
			}
		}
		if !good {
			failures++
		}
	}
	if failures > 1 { // allow one unlucky seed out of ten
		t.Fatalf("%d/%d trials had no 2-respecting tree", failures, trials)
	}
}

func TestEstimateCutOrder(t *testing.T) {
	// Dumbbell: true min cut is the bridge (3); the estimate must be a
	// lower-bound-leaning constant-factor figure, far below the heavy
	// degrees inside the cliques.
	p := gen.Dumbbell(12, 3, 7)
	deg := p.G.WeightedDegrees()
	minDeg := deg[0]
	for _, d := range deg {
		if d < minDeg {
			minDeg = d
		}
	}
	est := EstimateCut(p.G, 3, nil, nil)
	if est > minDeg {
		t.Fatalf("estimate %d above min degree %d", est, minDeg)
	}
	if est > 100*3 {
		t.Fatalf("estimate %d too far above bridge weight 3", est)
	}
}

func TestSampleTreesSmallGraphs(t *testing.T) {
	// Two vertices, one edge.
	g := graph.New(2)
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	res, err := SampleTrees(g, Options{Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 || len(res.Trees[0]) != 1 {
		t.Fatalf("trees: %v", res.Trees)
	}
	// Triangle.
	tri := gen.Clique(3, 4, 2)
	res, err = SampleTrees(tri, Options{Seed: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trees {
		if !isSpanningTree(tri, tr) {
			t.Fatal("triangle tree invalid")
		}
	}
}

func TestSampleTreesDisconnected(t *testing.T) {
	g := gen.Disconnected(5, 6, 3)
	if _, err := SampleTrees(g, Options{Seed: 4}, nil, nil); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestSampleTreesDeterministicInSeed(t *testing.T) {
	g := gen.RandomConnected(40, 160, 10, 9)
	a, err := SampleTrees(g, Options{Seed: 5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleTrees(g, Options{Seed: 5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trees) != len(b.Trees) || a.Estimate != b.Estimate {
		t.Fatal("same seed, different outcome")
	}
	for i := range a.Trees {
		for j := range a.Trees[i] {
			if a.Trees[i][j] != b.Trees[i][j] {
				t.Fatal("same seed, different trees")
			}
		}
	}
}

func TestPackValueBelowSkeletonCut(t *testing.T) {
	// Packing value never exceeds the skeleton's minimum cut; on a cycle
	// (min cut 2 everywhere) with p=1 the value must be ≤ 2 and ≥ 1.
	weights := make([]int64, 12)
	for i := range weights {
		weights[i] = 1
	}
	p := gen.Cycle(weights)
	res, err := SampleTrees(p.G, Options{Seed: 11}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PackValue > 2.01 || res.PackValue < 0.5 {
		t.Fatalf("cycle pack value %f outside [0.5, 2]", res.PackValue)
	}
}

// refSkeleton is the materialized skeleton that the compressed one stands
// for: one unit-weight graph.Edge per sampled copy, the copies of an edge
// at consecutive indices in edge order, drawn from rng exactly as
// skeleton draws.
func refSkeleton(g *graph.Graph, p float64, clamp, multCap int64, rng *rand.Rand) (edges []graph.Edge, origin []int32) {
	for i, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		c := binomial(min(e.W, clamp), p, multCap, rng)
		for j := int64(0); j < c; j++ {
			edges = append(edges, graph.Edge{U: e.U, V: e.V, W: 1})
			origin = append(origin, int32(i))
		}
	}
	return edges, origin
}

// refPack is the greedy packing over materialized copies: one load per
// copy, and each round's minimum spanning tree taken on those loads.
func refPack(n int, edges []graph.Edge, rounds int) (trees [][]int32, maxLoad int64, ok bool) {
	if len(edges) < n-1 {
		return nil, 0, false
	}
	load := make([]int64, len(edges))
	for r := 0; r < rounds; r++ {
		sel, comps := mst.Forest(nil, n, edges, load, nil, nil)
		if comps != 1 {
			return nil, 0, false
		}
		for _, i := range sel {
			load[i]++
		}
		trees = append(trees, sel)
	}
	return trees, max(1, slices.Max(load)), true
}

// originTrees maps each tree's skeleton indices to original edge indices,
// sorted.
func originTrees(trees [][]int32, origin []int32) [][]int32 {
	out := make([][]int32, len(trees))
	for i, t := range trees {
		for _, ei := range t {
			out[i] = append(out[i], origin[ei])
		}
		slices.Sort(out[i])
	}
	return out
}

// withLoopsAndParallel returns g plus a self-loop at every fifth vertex
// and a parallel copy, with a fresh weight, of every third edge.
func withLoopsAndParallel(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	h := g.Clone()
	for v := 0; v < g.N(); v += 5 {
		if err := h.AddEdge(v, v, 1+rng.Int63n(40)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < g.M(); i += 3 {
		e := g.Edge(i)
		if err := h.AddEdge(int(e.U), int(e.V), 1+rng.Int63n(2*e.W)); err != nil {
			panic(err)
		}
	}
	return h
}

// TestPackMatchesMaterializedSkeleton pins the compressed skeleton to the
// materialized one it replaces: on the same draws, skeleton plus pack
// must pick the same trees (after mapping to original edges), the same
// maximum copy load and the same connectivity verdict as refSkeleton plus
// refPack, and count the same copies. Each graph is packed at every
// sampling rate of an estimate walk from its minimum weighted degree down
// to p = 1, which passes through disconnected and connected skeletons,
// and at two settings with heavy copies: p = 1 with no clamp, where an
// edge heavier than the round count has its copies capped, and p = 1/2
// with a small cap.
func TestPackMatchesMaterializedSkeleton(t *testing.T) {
	weights := make([]int64, 40)
	for i := range weights {
		weights[i] = 1 + int64(i%3)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", gen.RandomConnected(60, 240, 20, 1)},
		{"heavy", gen.RandomConnected(40, 160, 1<<30, 2)},
		{"loops-parallel", withLoopsAndParallel(gen.RandomConnected(50, 150, 30, 3), 4)},
		{"dumbbell", gen.Dumbbell(12, 3, 7).G},
		{"cycle", gen.Cycle(weights).G},
		{"grid-loops-parallel", withLoopsAndParallel(gen.Grid(6, 8, false, 5, 5), 6)},
	}
	var connected, disconnected, multi, capped int
	for _, tc := range graphs {
		g, n := tc.g, tc.g.N()
		lnN := math.Log(float64(n) + 1)
		rounds := max(24, int(math.Ceil(1.5*lnN*lnN)))
		type setting struct {
			p              float64
			clamp, multCap int64
		}
		settings := []setting{{1, math.MaxInt64, int64(rounds)}, {0.5, 1 << 20, 5}}
		upper := slices.Min(g.WeightedDegrees())
		for ch := upper; ; ch /= 2 {
			p := min(1, 3*lnN/float64(ch))
			settings = append(settings, setting{p, ch, int64(rounds)})
			if p >= 1 || ch <= 1 {
				break
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, st := range settings {
				sc := &scratch{}
				edges, origin, copies := skeleton(g, st.p, st.clamp, st.multCap, rand.New(rand.NewSource(seed)), sc)
				trees, maxLoad, ok, err := pack(context.Background(), n, edges, rounds, sc, nil, nil, nil, trace.SpanRef{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				refEdges, refOrigin := refSkeleton(g, st.p, st.clamp, st.multCap, rand.New(rand.NewSource(seed)))
				refTrees, refMax, refOK := refPack(n, refEdges, rounds)
				where := fmt.Sprintf("%s seed %d p=%g clamp=%d cap=%d", tc.name, seed, st.p, st.clamp, st.multCap)
				if copies != len(refEdges) {
					t.Fatalf("%s: %d copies, materialized %d", where, copies, len(refEdges))
				}
				if ok != refOK || maxLoad != refMax || len(trees) != len(refTrees) {
					t.Fatalf("%s: ok=%v maxLoad=%d trees=%d, materialized ok=%v maxLoad=%d trees=%d",
						where, ok, maxLoad, len(trees), refOK, refMax, len(refTrees))
				}
				got, want := originTrees(trees, origin), originTrees(refTrees, refOrigin)
				for r := range got {
					if !slices.Equal(got[r], want[r]) {
						t.Fatalf("%s: round %d tree %v, materialized %v", where, r, got[r], want[r])
					}
				}
				if ok {
					connected++
				} else {
					disconnected++
				}
				for i, e := range edges {
					if e.W > 1 {
						multi++
					}
					if e.W == st.multCap && min(g.Edge(int(origin[i])).W, st.clamp) > st.multCap {
						capped++
					}
				}
			}
		}
	}
	// The inputs must reach every case the equivalence argument covers.
	if connected == 0 || disconnected == 0 || multi == 0 || capped == 0 {
		t.Fatalf("coverage: %d connected, %d disconnected skeletons, %d multi-copy and %d capped entries",
			connected, disconnected, multi, capped)
	}
}

// TestAnnouncedTreesAreDrawnTrees pins SampleTreesAnnouncing's hook, on
// pools of width 1 and 2. The hook is called once per guess, in order,
// and the Result equals a run without a hook. A guess announces each
// round at most once and no two trees of equal content, and for the
// accepted guess the announced trees, sorted, are exactly the returned
// trees, the same slices: chooseTrees draws no tree that was not
// announced, and every announced tree is one it draws. With packing seed
// 2 the dumbbell takes four guesses and rejects its first two after all
// their rounds completed, so they announce trees too.
func TestAnnouncedTreesAreDrawnTrees(t *testing.T) {
	for _, tc := range []struct {
		spec         string
		gseed, seed  int64
		packings     int
		rejectedAnns bool
	}{
		{"cycle:n=300,w=50", 1, 3, 1, false},
		{"random:n=200,m=400,w=100", 2, 5, 1, false},
		{"dumbbell:n=20,bridge=1", 1, 2, 4, true},
	} {
		g, _, err := gen.FromSpec(tc.spec, tc.gseed)
		if err != nil {
			t.Fatal(err)
		}
		treeCount := int(math.Ceil(2*math.Log2(float64(g.N())))) + 3
		for _, w := range []int{1, 2} {
			pool := par.NewPool(w)
			want, err := SampleTrees(g, Options{Seed: tc.seed}, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			var guesses []int
			announced := map[int]map[int][]int32{} // guess → round → tree
			got, err := SampleTreesAnnouncing(context.Background(), g, Options{Seed: tc.seed}, pool, nil, nil, trace.SpanRef{},
				func(guess int) func(int, []int32) {
					guesses = append(guesses, guess)
					announced[guess] = map[int][]int32{}
					return func(round int, tree []int32) {
						for r, a := range announced[guess] {
							if r == round || slices.Equal(a, tree) {
								t.Errorf("%s: guess %d announced round %d's tree again in round %d", tc.spec, guess, r, round)
							}
						}
						announced[guess][round] = tree
					}
				})
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s width %d", tc.spec, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: result with a hook %+v, without %+v", where, got, want)
			}
			if got.Packings != tc.packings || !slices.Equal(guesses, []int{0, 1, 2, 3}[:got.Packings]) {
				t.Fatalf("%s: %d packings, hook called for guesses %v; want %d packings", where, got.Packings, guesses, tc.packings)
			}
			acc := announced[got.Packings-1]
			if len(acc) == 0 || len(acc) > treeCount {
				t.Fatalf("%s: accepted guess announced %d rounds, want 1 to %d", where, len(acc), treeCount)
			}
			if len(acc) != len(got.Trees) {
				t.Errorf("%s: accepted guess announced %d trees, returned %d", where, len(acc), len(got.Trees))
			}
			for r, tree := range acc {
				if !slices.IsSorted(tree) || !slices.ContainsFunc(got.Trees, func(x []int32) bool { return &x[0] == &tree[0] }) {
					t.Errorf("%s: round %d's announced tree is not a returned tree", where, r)
				}
			}
			rejected := 0
			for guess := 0; guess < got.Packings-1; guess++ {
				rejected += len(announced[guess])
			}
			if (rejected > 0) != tc.rejectedAnns {
				t.Errorf("%s: rejected guesses announced %d trees, want some: %v", where, rejected, tc.rejectedAnns)
			}
		}
	}
}
