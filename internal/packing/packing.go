// Package packing implements the tree-packing step of Karger's algorithm
// (paper §2.1, Lemma 1): sample a sparse skeleton of the graph whose
// minimum cut is Θ(log n), greedily pack spanning trees in it by repeated
// minimum spanning tree computations with respect to integer edge loads
// (the Plotkin–Shmoys–Tardos scheme in Thorup's greedy form), and sample
// O(log n) trees from the packing. With high probability one sampled tree
// crosses the minimum cut of the original graph at most twice.
//
// Weighted edges are sampled binomially per weight unit (geometric
// skipping, so the cost is proportional to the number of sampled copies).
// Two standard reductions keep the skeleton near-linear despite large
// weights: an edge's weight is clamped to the current cut estimate ĉ
// before sampling (no edge heavier than ĉ can cross a cut of value ≤ ĉ, so
// cuts at or below the estimate are unaffected), and materialized
// multiplicity is capped at the number of packing rounds (a tree uses an
// edge at most once per round, so further parallel copies are never
// load-relevant).
package packing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/wd"
)

// scratch holds the per-attempt working buffers of the estimate loop: the
// materialized skeleton (edges + origin map) and the greedy packing's
// load array. Skeleton sizes are stable across attempts of a solve and
// across solves of similar graphs, so recycling the backing arrays makes
// repeat solves allocation-free here; the buffers are recycled through a
// package pool because one scratch spans calls into several executors'
// primitives.
type scratch struct {
	edges  []graph.Edge
	origin []int32
	load   []int64
}

var scratchPool sync.Pool

func getScratch() *scratch {
	if v := scratchPool.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{}
}

func putScratch(sc *scratch) {
	scratchPool.Put(sc)
}

// loadFor returns sc.load resized to n and zeroed.
func (sc *scratch) loadFor(n int) []int64 {
	if cap(sc.load) < n {
		sc.load = make([]int64, n)
		return sc.load
	}
	sc.load = sc.load[:n]
	clear(sc.load)
	return sc.load
}

// Options control the sampling and packing constants. The defaults are
// tuned empirically (paperbench -exp packing measures how often some
// sampled tree crosses the minimum cut at most twice): the paper's w.h.p.
// analysis fixes them only up to constants.
type Options struct {
	// Kappa scales the skeleton sampling probability p = Kappa·ln(n)/ĉ.
	Kappa float64
	// RoundsFactor scales the number of packing rounds:
	// rounds = ceil(RoundsFactor · ln²(n)), at least 24.
	RoundsFactor float64
	// AcceptFraction: accept an estimate when the packing value reaches
	// AcceptFraction · Kappa · ln(n).
	AcceptFraction float64
	// TreeCount is the number of trees sampled from the packing
	// (0 = ceil(2·log2 n) + 3).
	TreeCount int
	// Seed drives all randomness.
	Seed int64
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Kappa == 0 {
		o.Kappa = 3
	}
	if o.RoundsFactor == 0 {
		o.RoundsFactor = 1.5
	}
	if o.AcceptFraction == 0 {
		o.AcceptFraction = 0.25
	}
	return o
}

// Result is the output of SampleTrees.
type Result struct {
	// Trees hold edge indices into the original graph; each is a spanning
	// tree. Trees are deduplicated, so there may be fewer than requested.
	Trees [][]int32
	// Estimate is the accepted cut estimate ĉ.
	Estimate int64
	// PackValue is the packing value rounds/maxLoad of the accepted packing.
	PackValue float64
	// SkeletonCopies is the size of the accepted skeleton multigraph.
	SkeletonCopies int
	// Packings counts how many estimate guesses ran a full packing.
	Packings int
}

// binomial samples Binomial(w, p) by geometric skipping, capped at cap.
func binomial(w int64, p float64, cap int64, rng *rand.Rand) int64 {
	if w <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		if w < cap {
			return w
		}
		return cap
	}
	logq := math.Log1p(-p)
	var count, pos int64
	for {
		u := rng.Float64()
		if u == 0 {
			u = 0.5
		}
		pos += int64(math.Log(u)/logq) + 1
		if pos > w {
			return count
		}
		count++
		if count >= cap {
			return count
		}
	}
}

// skeleton materializes the sampled multigraph into sc's recycled
// buffers: each original edge e contributes Binomial(min(w(e), clamp), p)
// unit copies (capped at multCap). origin maps each copy back to its
// original edge index. The returned slices are views of sc's buffers and
// are invalidated by the next skeleton call on the same scratch.
func skeleton(g *graph.Graph, p float64, clamp, multCap int64, rng *rand.Rand, sc *scratch) (edges []graph.Edge, origin []int32) {
	edges, origin = sc.edges[:0], sc.origin[:0]
	for i, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		w := e.W
		if w > clamp {
			w = clamp
		}
		c := binomial(w, p, multCap, rng)
		for j := int64(0); j < c; j++ {
			edges = append(edges, graph.Edge{U: e.U, V: e.V, W: 1})
			origin = append(origin, int32(i))
		}
	}
	sc.edges, sc.origin = edges, origin
	return edges, origin
}

// EstimateCut returns a constant-factor-leaning-low estimate of the
// minimum cut via Karger's sampling/connectivity threshold: the largest
// sampling rate 2^-j at which the skeleton stays connected satisfies
// c·2^-j ≈ ln n, so c ≈ ln(n)·2^j. The returned estimate errs low (which
// costs skeleton density, never correctness).
func EstimateCut(g *graph.Graph, seed int64, pool *par.Pool, m *wd.Meter) int64 {
	n := g.N()
	if n < 2 {
		return 1
	}
	deg := g.WeightedDegrees()
	upper, _ := pool.MinInt64(deg)
	if upper < 1 {
		upper = 1
	}
	lnN := math.Log(float64(n) + 1)
	rng := rand.New(rand.NewSource(seed))
	sc := getScratch()
	defer putScratch(sc)
	// Walk j downward (doubling p) until the sampled skeleton connects.
	for j := int(math.Log2(float64(upper)/lnN)) + 1; j > 0; j-- {
		p := math.Ldexp(1, -j) // 2^-j
		clamp := int64(3*lnN/p) + 1
		edges, _ := skeleton(g, p, clamp, int64(8*lnN)+4, rng, sc)
		if len(edges) < n-1 {
			continue
		}
		if mst.Components(n, edges, pool, m) == 1 {
			est := int64(lnN * math.Ldexp(1, j) / 2)
			if est < 1 {
				est = 1
			}
			if est > upper {
				est = upper
			}
			return est
		}
	}
	return upper // heavy graph; sampling never disconnected it above p=1/2
}

// SampleTrees runs the full Lemma 1 pipeline on a connected graph.
func SampleTrees(g *graph.Graph, opt Options, pool *par.Pool, m *wd.Meter) (*Result, error) {
	return SampleTreesContext(context.Background(), g, opt, pool, m, nil, trace.SpanRef{})
}

// SampleTreesContext is SampleTrees with cooperative cancellation and a
// live progress sink. ctx is checked between estimate guesses and between
// greedy packing rounds — the packing phase dominates many solves, so a
// canceled solve must be able to unwind from inside it, not only at the
// phase boundary before it. sink (nil OK) is advanced one PackRoundDone
// per greedy round, and sp (zero OK) gets child spans for the cut
// estimate and each packing attempt; instrumentation never affects the
// sampled trees.
func SampleTreesContext(ctx context.Context, g *graph.Graph, opt Options, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (*Result, error) {
	opt = opt.withDefaults()
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("packing: need at least 2 vertices, have %d", n)
	}
	lnN := math.Log(float64(n) + 1)
	rounds := int(math.Ceil(opt.RoundsFactor * lnN * lnN))
	if rounds < 24 {
		rounds = 24
	}
	treeCount := opt.TreeCount
	if treeCount <= 0 {
		treeCount = int(math.Ceil(2*math.Log2(float64(n)))) + 3
	}
	deg := g.WeightedDegrees()
	upper, _ := pool.MinInt64(deg)
	if upper < 1 {
		return nil, fmt.Errorf("packing: graph has an isolated vertex")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("packing: canceled: %w", err)
	}
	esp := sp.Child("estimate")
	est := EstimateCut(g, opt.Seed, pool, m)
	esp.AttrInt("estimate", est).End()
	ch := 2 * est
	if ch > upper {
		ch = upper
	}
	if ch < 1 {
		ch = 1
	}
	threshold := opt.AcceptFraction * opt.Kappa * lnN
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	res := &Result{}
	sc := getScratch()
	defer putScratch(sc)
	for guess := 0; ; guess++ {
		if guess > 64 {
			return nil, fmt.Errorf("packing: estimate loop failed to converge")
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("packing: canceled: %w", err)
		}
		p := opt.Kappa * lnN / float64(ch)
		if p > 1 {
			p = 1
		}
		asp := sp.Child("pack-attempt").AttrInt("guess", int64(guess)).AttrInt("target", ch)
		edges, origin := skeleton(g, p, ch, int64(rounds), rng, sc)
		atFloor := p >= 1
		sink.AddPackRounds(int64(rounds))
		trees, maxLoad, ok, err := pack(ctx, n, edges, rounds, sc.loadFor(len(edges)), pool, m, sink, asp)
		if err != nil {
			asp.End()
			return nil, err
		}
		asp.AttrInt("skeleton_copies", int64(len(edges)))
		if ok {
			tau := float64(rounds) / float64(maxLoad)
			if tau >= threshold || atFloor {
				asp.Attr("accepted", "true").End()
				res.Estimate = ch
				res.PackValue = tau
				res.SkeletonCopies = len(edges)
				res.Packings = guess + 1
				res.Trees = chooseTrees(trees, origin, treeCount, rng)
				return res, nil
			}
		} else if atFloor {
			asp.End()
			return nil, fmt.Errorf("packing: graph is disconnected")
		}
		asp.Attr("accepted", "false").End()
		ch /= 2
		if ch < 1 {
			ch = 1
		}
	}
}

// pack greedily packs spanning trees: each round takes a minimum spanning
// tree with respect to the current integer loads, then increments the
// loads of its edges. Returns the trees (as skeleton edge indices), the
// maximum load (the packing value is rounds/maxLoad), and whether the
// skeleton was connected. Each round is a cancellation seam, a progress
// tick, and a "round" child span of sp: rounds are the packing phase's
// unit of work.
func pack(ctx context.Context, n int, edges []graph.Edge, rounds int, load []int64, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (trees [][]int32, maxLoad int64, ok bool, err error) {
	if len(edges) < n-1 {
		return nil, 0, false, nil
	}
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, false, fmt.Errorf("packing: canceled at round %d/%d: %w", r, rounds, err)
		}
		rsp := sp.Child("round").AttrInt("round", int64(r))
		sel, comps := mst.Forest(n, edges, load, pool, m)
		if comps != 1 {
			rsp.End()
			return nil, 0, false, nil
		}
		for _, i := range sel {
			load[i]++
		}
		trees = append(trees, sel)
		rsp.End()
		sink.PackRoundDone()
	}
	maxLoad = 1
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return trees, maxLoad, true, nil
}

// chooseTrees samples treeCount trees uniformly from the packing (Karger:
// a constant fraction of the packing's weight 2-respects the minimum cut,
// so uniform sampling from the greedy packing finds a good tree w.h.p.),
// translates skeleton copies to original edge indices, and deduplicates.
func chooseTrees(trees [][]int32, origin []int32, treeCount int, rng *rand.Rand) [][]int32 {
	seen := make(map[string]bool)
	var out [][]int32
	for i := 0; i < treeCount && len(trees) > 0; i++ {
		t := trees[rng.Intn(len(trees))]
		orig := make([]int32, len(t))
		for j, ei := range t {
			orig[j] = origin[ei]
		}
		sort.Slice(orig, func(a, b int) bool { return orig[a] < orig[b] })
		key := treeKey(orig)
		if !seen[key] {
			seen[key] = true
			out = append(out, orig)
		}
	}
	return out
}

// treeKey builds a map key from sorted edge indices.
func treeKey(orig []int32) string {
	b := make([]byte, 4*len(orig))
	for i, v := range orig {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}
