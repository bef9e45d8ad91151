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
// cuts at or below the estimate are unaffected), and an edge's number of
// sampled copies is capped at the number of packing rounds (a tree uses an
// edge at most once per round, so further parallel copies are never
// load-relevant).
//
// The skeleton multigraph is stored compressed: one entry per sampled
// edge, carrying its copy count, instead of one edge per unit copy. The
// greedy packing tracks how often each entry was selected and hands the
// minimum spanning tree computation the load of the entry's least-loaded
// copy; pack's comment shows why that picks exactly the trees the
// copy-level packing would.
package packing

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/wd"
)

// scratch holds the per-attempt working buffers of the estimate loop: the
// compressed skeleton (entries + origin map), the greedy packing's
// per-entry counters and its trees, and chooseTrees' marks. Skeleton sizes
// are stable across attempts of a solve and across solves of similar
// graphs, so recycling the backing arrays makes repeat solves
// allocation-free here; the buffers are recycled through a package pool
// because one scratch spans calls into several executors' primitives.
type scratch struct {
	edges  []graph.Edge
	origin []int32
	load   []int64
	picks  []int64
	// forests holds every greedy round's tree, n-1 entry indices per
	// round, and trees the per-round views of it.
	forests []int32
	trees   [][]int32
	// marks is a bitset over the entries and tree one chosen tree's
	// original edge indices.
	marks []uint64
	tree  []int32
	// While trees are announced: drawn marks the rounds chooseTrees draws
	// if the current guess is accepted, replay is the second generator
	// that finds them, and announced holds each drawn round's tree once
	// the round has completed, with its hash in hashes. Rounds with equal
	// trees share the first one's announced slice, which chooseTrees
	// returns instead of a copy.
	drawn     []bool
	replay    *rand.Rand
	announced [][]int32
	hashes    []uint64
}

var scratchPool sync.Pool

func getScratch() *scratch {
	if v := scratchPool.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{}
}

func putScratch(sc *scratch) {
	clear(sc.announced[:cap(sc.announced)]) // the trees belong to the caller now
	scratchPool.Put(sc)
}

// zeroed returns b resized to n and zeroed, reallocating only when b is
// too small.
func zeroed[T int64 | uint64](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// The sampling and packing constants. They are tuned empirically
// (paperbench -exp packing measures how often some sampled tree crosses
// the minimum cut at most twice): the paper's w.h.p. analysis fixes them
// only up to constants.
const (
	// kappa scales the skeleton sampling probability p = kappa·ln(n)/ĉ.
	kappa = 3
	// roundsFactor scales the number of packing rounds:
	// rounds = ceil(roundsFactor · ln²(n)), at least 24.
	roundsFactor = 1.5
	// acceptFraction: accept an estimate when the packing value reaches
	// acceptFraction · kappa · ln(n).
	acceptFraction = 0.25
)

// Options control a packing run.
type Options struct {
	// Seed drives all randomness.
	Seed int64
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
	// SkeletonCopies is the size of the accepted skeleton multigraph, in
	// unit copies.
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

// skeleton samples the skeleton multigraph into sc's recycled buffers:
// each original edge e gets c = Binomial(min(w(e), clamp), p) parallel
// unit copies (capped at multCap), and each edge with c ≥ 1 becomes one
// entry {U, V, W: c}, in g.Edges() order. origin maps each entry back to
// its original edge index, and copies is the multigraph's size, the sum
// of the c. The returned slices are views of sc's buffers and are
// invalidated by the next skeleton call on the same scratch.
func skeleton(g *graph.Graph, p float64, clamp, multCap int64, rng *rand.Rand, sc *scratch) (edges []graph.Edge, origin []int32, copies int) {
	edges, origin = sc.edges[:0], sc.origin[:0]
	for i, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		w := e.W
		if w > clamp {
			w = clamp
		}
		if c := binomial(w, p, multCap, rng); c > 0 {
			edges = append(edges, graph.Edge{U: e.U, V: e.V, W: c})
			origin = append(origin, int32(i))
			copies += int(c)
		}
	}
	sc.edges, sc.origin = edges, origin
	return edges, origin, copies
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
		edges, _, _ := skeleton(g, p, clamp, int64(8*lnN)+4, rng, sc)
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
	return SampleTreesAnnouncing(ctx, g, opt, pool, m, sink, sp, nil)
}

// Announce lets a caller start work on the sampled trees while the
// packing still runs. SampleTreesAnnouncing calls it once per estimate
// guess, right after the guess's skeleton is sampled; a call for a later
// guess means every earlier one was rejected. The function it returns is
// called once for each distinct tree that chooseTrees draws if this guess
// is accepted, as soon as the first round that built it completes, with
// that round's index and the tree as sorted original edge indices. The
// callee keeps the tree and must not modify it: the accepted guess's
// announced trees are exactly the Result's Trees, the same slices.
type Announce func(guess int) func(round int, tree []int32)

// SampleTreesAnnouncing is SampleTreesContext with an Announce hook (nil
// means none). The hook never changes the sampled trees: the rounds a
// guess would draw are found by replaying the packing's random draws so
// far on a second source and drawing from that copy, so the packing's own
// draws are the ones it makes without a hook.
func SampleTreesAnnouncing(ctx context.Context, g *graph.Graph, opt Options, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef, announce Announce) (*Result, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("packing: need at least 2 vertices, have %d", n)
	}
	lnN := math.Log(float64(n) + 1)
	rounds := int(math.Ceil(roundsFactor * lnN * lnN))
	if rounds < 24 {
		rounds = 24
	}
	treeCount := int(math.Ceil(2*math.Log2(float64(n)))) + 3 // trees sampled from the packing
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
	threshold := acceptFraction * kappa * lnN
	src := &countingSource{Source: rand.NewSource(opt.Seed + 1)}
	rng := rand.New(src)
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
		p := kappa * lnN / float64(ch)
		if p > 1 {
			p = 1
		}
		asp := sp.Child("pack-attempt").AttrInt("guess", int64(guess)).AttrInt("target", ch)
		edges, origin, copies := skeleton(g, p, ch, int64(rounds), rng, sc)
		atFloor := p >= 1
		var onRound func(r int, sel []int32)
		sc.announced = sc.announced[:0]
		if announce != nil {
			onTree := announce(guess)
			sc.drawnRounds(opt.Seed+1, src.draws, rounds, treeCount)
			sc.marks = zeroed(sc.marks, (len(origin)+63)/64)
			onRound = func(r int, sel []int32) {
				if !sc.drawn[r] {
					return
				}
				orig, h := sc.original(sel, origin)
				for q, t := range sc.announced[:r] {
					if t != nil && sc.hashes[q] == h && slices.Equal(t, orig) {
						sc.announced[r] = t
						return
					}
				}
				sc.announced[r], sc.hashes[r] = slices.Clone(orig), h
				onTree(r, sc.announced[r])
			}
		}
		sink.AddPackRounds(int64(rounds))
		trees, maxLoad, ok, err := pack(ctx, n, edges, rounds, sc, pool, m, sink, asp, onRound)
		if err != nil {
			asp.End()
			return nil, err
		}
		asp.AttrInt("skeleton_copies", int64(copies))
		if ok {
			tau := float64(rounds) / float64(maxLoad)
			if tau >= threshold || atFloor {
				asp.Attr("accepted", "true").End()
				res.Estimate = ch
				res.PackValue = tau
				res.SkeletonCopies = copies
				res.Packings = guess + 1
				res.Trees = sc.chooseTrees(trees, origin, treeCount, rng)
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

// pack greedily packs spanning trees in the skeleton multigraph: each
// round takes a minimum spanning tree with respect to the current integer
// loads of the unit copies, then increments the loads of the copies it
// took. Returns the trees (as skeleton entry indices), the maximum copy
// load (the packing value is rounds/maxLoad), and whether the skeleton
// was connected. Each round is a cancellation seam, a progress tick, and
// a "round" child span of sp: rounds are the packing phase's unit of
// work. onRound (nil OK) receives each round's index and tree once the
// round completes. The per-entry counters and the trees live in sc's
// buffers, so the trees are invalidated by the next pack call on the same
// scratch.
//
// The copies are never materialized. Materialized, an entry's c copies
// would sit at consecutive indices in entry order, and Forest breaks load
// ties by index. Of parallel copies a minimum spanning tree holds at most
// the cheapest: with it, any other closes a cycle as its most expensive
// edge. So after the entry has been taken k times (picks), its copies'
// loads are ⌊k/c⌋ plus one for the first k mod c of them: the cheapest
// copy is number k mod c, at load ⌊k/c⌋, and taking it keeps the pattern
// for k+1. The tree over copies is therefore the tree over entries at
// cost ⌊k/c⌋ (load), where the tie-break by entry index orders the
// entries as their cheapest copies' indices would. An entry's most loaded
// copy has load ⌈k/c⌉.
func pack(ctx context.Context, n int, edges []graph.Edge, rounds int, sc *scratch, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef, onRound func(r int, sel []int32)) (trees [][]int32, maxLoad int64, ok bool, err error) {
	if len(edges) < n-1 {
		return nil, 0, false, nil
	}
	sc.load, sc.picks = zeroed(sc.load, len(edges)), zeroed(sc.picks, len(edges))
	load, picks := sc.load, sc.picks
	if need := rounds * (n - 1); cap(sc.forests) < need {
		sc.forests = make([]int32, need)
	}
	sc.trees = sc.trees[:0]
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, false, fmt.Errorf("packing: canceled at round %d/%d: %w", r, rounds, err)
		}
		rsp := sp.Child("round").AttrInt("round", int64(r))
		lo := r * (n - 1)
		sel, comps := mst.Forest(sc.forests[lo:lo:lo+n-1], n, edges, load, pool, m)
		if comps != 1 {
			rsp.End()
			return nil, 0, false, nil
		}
		for _, i := range sel {
			picks[i]++
			load[i] = picks[i] / edges[i].W
		}
		sc.trees = append(sc.trees, sel)
		rsp.End()
		sink.PackRoundDone()
		if onRound != nil {
			onRound(r, sel)
		}
	}
	maxLoad = 1
	for i, k := range picks {
		maxLoad = max(maxLoad, (k+edges[i].W-1)/edges[i].W)
	}
	return sc.trees, maxLoad, true, nil
}

// chooseTrees samples treeCount trees uniformly from the packing (Karger:
// a constant fraction of the packing's weight 2-respects the minimum cut,
// so uniform sampling from the greedy packing finds a good tree w.h.p.),
// translates skeleton entries to original edge indices, and deduplicates.
// It copies out every tree it keeps, since trees are views of sc's
// buffers, unless the round was announced: then it keeps the announced
// tree. A kept tree is compared with earlier ones by a 64-bit hash,
// confirmed element by element.
func (sc *scratch) chooseTrees(trees [][]int32, origin []int32, treeCount int, rng *rand.Rand) [][]int32 {
	sc.marks = zeroed(sc.marks, (len(origin)+63)/64)
	var out [][]int32
	var hashes []uint64
	for i := 0; i < treeCount && len(trees) > 0; i++ {
		r := rng.Intn(len(trees))
		orig, h := sc.original(trees[r], origin)
		dup := false
		for j, hj := range hashes {
			if hj == h && slices.Equal(out[j], orig) {
				dup = true
				break
			}
		}
		if !dup {
			if r < len(sc.announced) && sc.announced[r] != nil {
				out = append(out, sc.announced[r])
			} else {
				out = append(out, slices.Clone(orig))
			}
			hashes = append(hashes, h)
		}
	}
	return out
}

// original translates one packed tree from skeleton entries to original
// edge indices, in sc.tree, and returns them with their FNV-1a hash.
// skeleton emits entries in edge order, so origin is increasing: marking
// the tree's entries in sc.marks (which must be zero and cover origin)
// and reading the marks back in entry order yields the original indices
// already sorted, and leaves the marks zero again.
func (sc *scratch) original(tree, origin []int32) ([]int32, uint64) {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	for _, ei := range tree {
		sc.marks[ei/64] |= 1 << (ei % 64)
	}
	orig, h := sc.tree[:0], uint64(fnvOffset)
	for w, word := range sc.marks {
		for ; word != 0; word &= word - 1 {
			v := origin[w*64+bits.TrailingZeros64(word)]
			orig = append(orig, v)
			h = (h ^ uint64(v)) * fnvPrime
		}
		sc.marks[w] = 0
	}
	sc.tree = orig
	return orig, h
}

// countingSource is a math/rand source that counts the values it has
// produced, so that a second source seeded alike can be brought to the
// same state by drawing as many (see drawnRounds). It returns exactly
// its wrapped source's values, and a Rand over it draws every value
// through Int63, because it is not a Source64.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// drawnRounds marks in sc.drawn the rounds that chooseTrees draws from a
// packing of that many rounds when its rng stands where a fresh source
// from seed stands after draws values: it reseeds sc.replay, replays
// those draws on it, then makes chooseTrees' treeCount draws from it.
// At the p ≥ 1 sampling floor the skeleton draws nothing, so the replay
// costs nothing but the reseed.
func (sc *scratch) drawnRounds(seed int64, draws, rounds, treeCount int) {
	if cap(sc.drawn) < rounds {
		sc.drawn, sc.announced, sc.hashes = make([]bool, rounds), make([][]int32, rounds), make([]uint64, rounds)
	}
	sc.drawn, sc.announced, sc.hashes = sc.drawn[:rounds], sc.announced[:rounds], sc.hashes[:rounds]
	clear(sc.drawn)
	clear(sc.announced)
	if sc.replay == nil {
		sc.replay = rand.New(rand.NewSource(seed))
	} else {
		sc.replay.Seed(seed)
	}
	for range draws {
		sc.replay.Int63()
	}
	for range treeCount {
		sc.drawn[sc.replay.Intn(rounds)] = true
	}
}
