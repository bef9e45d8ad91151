// Package core assembles the paper's parallel minimum cut algorithm
// (Theorem 10): pack O(log n) spanning trees so that w.h.p. one of them
// crosses the minimum cut at most twice (Lemma 1, internal/packing), then
// for every tree find the smallest cut crossing at most two of its edges
// (Lemma 13), and return the overall smallest. Total work O(m log⁴ n),
// depth O(log³ n), Monte Carlo with high probability.
//
// Solve is that pipeline, with the per-tree step behind the Search seam.
// Boughs is the paper's search (bough decomposition and batched Minimum
// Path operations, internal/respect); HeavyPaths is the Anderson–Blelloch
// search (internal/abscan), which finds the same minimum on every tree
// with one log factor less work, so both return the same value and tree
// count.
// MinCut runs the pipeline with Boughs.
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/abscan"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/respect"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

// Options configure MinCut.
type Options struct {
	// Seed drives all randomness; runs are deterministic in it.
	Seed int64
	// WantPartition requests the cut's vertex partition, not just the value.
	WantPartition bool
	// Pool is the executor every parallel primitive of the computation
	// runs on; nil means the shared default pool (width GOMAXPROCS).
	// Results are identical at every pool width.
	Pool *par.Pool
	// Meter, when non-nil, accumulates Work-Depth model costs.
	Meter *wd.Meter
	// Progress, when non-nil, receives live phase and counter updates at
	// the cooperative-cancellation seams. It is write-only for the solver:
	// attaching a sink never changes the Result at any pool width.
	Progress *progress.Sink
	// Trace, when active, receives a span tree attributing the solve's
	// wall clock: "packing" and "scan" phase spans with estimate,
	// per-attempt, per-round and per-tree-search children; a tree
	// searched while packing runs has its "tree-scan" span under
	// "packing". Like Progress it is write-only — attaching a recorder
	// never changes the Result at any pool width — and the zero SpanRef
	// costs one branch per seam.
	Trace trace.SpanRef
}

// Result of a minimum cut computation.
type Result struct {
	// Value is the weight of the minimum cut.
	Value int64
	// InCut marks one side of an optimal partition (nil unless
	// Options.WantPartition).
	InCut []bool
	// TreesScanned is the number of distinct spanning trees searched.
	TreesScanned int
}

// Search is the pipeline's per-tree step (Lemma 13). Solve calls it once
// per solve, before the packing, with g's weighted degrees; the
// TreeSearch it returns is then called concurrently, once per packed
// tree, so state every tree shares is built here once.
type Search func(g *graph.Graph, deg []int64, pool *par.Pool) TreeSearch

// TreeSearch returns the smallest weight of a cut of g crossing at most
// two edges of the spanning tree given by parent (root marked by -1),
// and the Witness that rebuilds it. It meters into m, checks ctx and
// advances sink at its own seams, and opens its spans under sp.
type TreeSearch func(ctx context.Context, parent []int32, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (int64, Witness, error)

// Witness returns one side of a cut found by the pipeline, metering into
// m. Solve calls at most one per solve, and re-weighs what it returns.
type Witness func(m *wd.Meter) ([]bool, error)

// Boughs searches each tree with the paper's bough decomposition and
// batched Minimum Path operations (internal/respect): O(m log³ n) work
// per tree.
func Boughs(g *graph.Graph, _ []int64, pool *par.Pool) TreeSearch {
	return func(ctx context.Context, parent []int32, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (int64, Witness, error) {
		f, err := respect.ScanContext(ctx, g, parent, pool, m, sink, sp)
		if err != nil {
			return 0, nil, err
		}
		return f.Value, func(m *wd.Meter) ([]bool, error) { return respect.Witness(g, parent, f, pool, m) }, nil
	}
}

// HeavyPaths searches each tree with the Anderson–Blelloch heavy-path
// sweep (internal/abscan): O(m log² n) work per tree. One CSR adjacency
// per solve is shared read-only by every tree's sweep.
func HeavyPaths(g *graph.Graph, deg []int64, pool *par.Pool) TreeSearch {
	adj := g.BuildAdjOn(pool)
	return func(ctx context.Context, parent []int32, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (int64, Witness, error) {
		f, err := abscan.Scan(ctx, g, adj, deg, parent, false, pool, m, sink, sp)
		if err != nil {
			return 0, nil, err
		}
		return f.Value, func(m *wd.Meter) ([]bool, error) { return abscan.Witness(g, parent, f, pool, m) }, nil
	}
}

// MinCut computes a global minimum cut of g with the paper's per-tree
// search (Boughs). It is Monte Carlo: the result is correct with high
// probability (failures can only overestimate — every reported value is
// the weight of some real cut).
func MinCut(g *graph.Graph, opt Options) (Result, error) {
	return Solve(context.Background(), g, opt, Boughs)
}

// Solve is the packed-tree pipeline with search as its per-tree step.
// On an executor of width ≥ 2 a tree's search starts as soon as the
// greedy packing round that built it completes, on the lanes the
// sequential packing rounds leave idle, and the scan phase searches only
// the trees not searched yet, then joins them all; on a width-1 executor
// every search runs after packing. Either way the results combine in the
// packing's tree order, so the Result is the same at every width. ctx is
// checked before the packing phase, at the start of the scan phase and
// of every tree, and wherever search checks it (between bough phases, or
// between heavy paths), so a canceled context stops the computation
// within one phase of work. With Options.WantPartition the returned
// partition is re-weighed once, whichever branch produced it, and a
// mismatch with the reported value is an error.
func Solve(ctx context.Context, g *graph.Graph, opt Options, search Search) (Result, error) {
	res, witness, err := minCut(ctx, g, opt, search)
	if err != nil || !opt.WantPartition {
		return res, err
	}
	inCut, err := witness(opt.Meter)
	if err != nil {
		return Result{}, fmt.Errorf("core: witness extraction failed: %v", err)
	}
	if err := CheckPartition(g, opt.Pool, inCut, res.Value); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	res.InCut = inCut
	return res, nil
}

// CheckPartition re-weighs the side inCut of a cut of g in O(m) work and
// returns an error unless it weighs value, so a solver that returns a
// partition proves the value it reports.
func CheckPartition(g *graph.Graph, pool *par.Pool, inCut []bool, value int64) error {
	if got := g.CutValueOn(pool, inCut); got != value {
		return fmt.Errorf("partition weighs %d, reported value %d", got, value)
	}
	return nil
}

// minCut runs the pipeline up to the winning cut's value and returns the
// Witness that rebuilds it.
func minCut(ctx context.Context, g *graph.Graph, opt Options, search Search) (Result, Witness, error) {
	n := g.N()
	if n < 2 {
		return Result{}, nil, fmt.Errorf("core: minimum cut needs at least 2 vertices, have %d", n)
	}
	m := opt.Meter
	pool := opt.Pool
	// Disconnected graphs have a minimum cut of 0 (paper §1.1.1).
	_, labels, comps := mst.ForestWithLabels(n, g.Edges(), nil, pool, m)
	if comps > 1 {
		return Result{Value: 0}, func(*wd.Meter) ([]bool, error) {
			inCut := make([]bool, n)
			ref := labels[0]
			pool.For(n, func(v int) { inCut[v] = labels[v] == ref })
			return inCut, nil
		}, nil
	}
	// The minimum weighted degree is both the packing's starting upper
	// bound and a legitimate cut candidate (a singleton).
	deg := g.WeightedDegrees()
	minDeg, minDegV := pool.MinInt64(deg)
	m.Add(int64(n), wd.CeilLog2(n))

	if err := ctx.Err(); err != nil {
		return Result{}, nil, fmt.Errorf("core: canceled before packing: %w", err)
	}
	sink := opt.Progress
	ts := &treeSearches{g: g, search: search(g, deg, pool), pool: pool, sink: sink, group: pool.Group(), base: ctx, ctx: ctx}
	defer ts.stop()
	sink.EnterPhase(progress.PhasePacking)
	packSp := opt.Trace.Child("packing")
	// A width-1 executor has no lane for a search to run on while
	// packing runs, so it searches every tree after packing, as a
	// sequential loop.
	var announce packing.Announce
	if pool.Width() > 1 {
		announce = ts.announce(packSp)
	}
	pk, err := packing.SampleTreesAnnouncing(ctx, g, packing.Options{Seed: opt.Seed + 1}, pool, m, sink, packSp, announce)
	if err != nil {
		packSp.End()
		if ctx.Err() != nil {
			return Result{}, nil, fmt.Errorf("core: tree packing canceled: %w", ctx.Err())
		}
		return Result{}, nil, fmt.Errorf("core: tree packing failed: %v", err)
	}
	packSp.AttrInt("trees", int64(len(pk.Trees))).AttrInt("estimate", pk.Estimate).
		AttrInt("packings", int64(pk.Packings)).End()
	sink.AddTrees(int64(len(pk.Trees)))
	sink.EnterPhase(progress.PhaseScan)
	if err := ctx.Err(); err != nil {
		return Result{}, nil, fmt.Errorf("core: canceled before the tree scans: %w", err)
	}
	scanSp := opt.Trace.Child("scan").AttrInt("trees", int64(len(pk.Trees)))
	runs := ts.consume(pk.Trees, scanSp)
	ts.group.Wait()
	scanSp.End()
	locals := make([]*wd.Meter, len(runs))
	for i, r := range runs {
		locals[i] = &r.meter
	}
	m.Par(locals...) // trees are searched in parallel (§4.3 step 3)
	best := Result{Value: minDeg, TreesScanned: len(pk.Trees)}
	// The singleton minimum-degree cut wins unless some tree beats it.
	witness := Witness(func(*wd.Meter) ([]bool, error) {
		inCut := make([]bool, n)
		inCut[minDegV] = true
		return inCut, nil
	})
	for i, r := range runs {
		if r.err != nil {
			return Result{}, nil, fmt.Errorf("core: tree %d scan failed: %w", i, r.err)
		}
		if r.value < best.Value {
			best.Value, witness = r.value, r.witness
		}
	}
	return best, witness, nil
}

// treeSearches runs a solve's tree searches (§4.3 step 3), each on its
// own branch of one fork-join group. With a packing.Announce hook
// installed, it forks the search of every tree a guess draws as soon as
// the greedy round that built it completes, so the searches use the
// executor lanes that the sequential packing rounds leave idle; consume
// then forks only the packed trees not searched yet. Only the solve's
// goroutine calls its methods: the hook runs inside the packing.
type treeSearches struct {
	g      *graph.Graph
	search TreeSearch
	pool   *par.Pool
	sink   *progress.Sink
	group  par.Group
	// base is the solve's context, ctx the current guess's (base itself
	// until a guess is announced), and cancel cancels ctx.
	base, ctx context.Context
	cancel    context.CancelFunc
	// runs are the current guess's announced trees.
	runs []*treeRun
}

// treeRun is one tree's search. Its results are written by the branch
// that searches it and read after the group's join.
type treeRun struct {
	tree    []int32 // sorted original edge indices
	meter   wd.Meter
	value   int64
	witness Witness
	err     error
	// state holds the searched and consumed bits (see settle).
	state atomic.Int32
}

const (
	searched int32 = 1 << iota // the search succeeded
	consumed                   // the scan phase took the run for a packed tree
)

// settle sets bit on r and credits the tree to the progress sink once it
// has both bits: whichever of the search and the scan phase comes second
// credits it. So a tree counts once, only after its search succeeded and
// only if the accepted packing drew it. Each bit is set once, so adding
// it sets it.
func (ts *treeSearches) settle(r *treeRun, bit int32) {
	if r.state.Add(bit) == searched|consumed {
		ts.sink.TreeDone()
	}
}

// announce returns the packing hook. A new guess cancels the previous
// guess's searches and drops them: they are joined with the rest, but
// their results are never read and never credited.
func (ts *treeSearches) announce(packSp trace.SpanRef) packing.Announce {
	return func(int) func(int, []int32) {
		if ts.cancel != nil {
			ts.cancel()
		}
		ts.ctx, ts.cancel = context.WithCancel(ts.base)
		ts.runs = nil
		return func(round int, tree []int32) {
			r := &treeRun{tree: tree}
			ts.runs = append(ts.runs, r)
			ts.fork(r, packSp, "round", round)
		}
	}
}

// consume maps each packed tree, in order, to its run, which it marks
// consumed: the run announced for it if there is one, else a new run that
// it forks.
func (ts *treeSearches) consume(trees [][]int32, scanSp trace.SpanRef) []*treeRun {
	runs := make([]*treeRun, len(trees))
	for i, t := range trees {
		r := ts.find(t)
		fresh := r == nil
		if fresh {
			r = &treeRun{tree: t}
		}
		ts.settle(r, consumed)
		if fresh {
			ts.fork(r, scanSp, "tree", i)
		}
		runs[i] = r
	}
	return runs
}

// find returns the current guess's run for tree, or nil. Packing returns
// the announced trees themselves, so a run is found by identity.
func (ts *treeSearches) find(tree []int32) *treeRun {
	for _, r := range ts.runs {
		if &r.tree[0] == &tree[0] {
			return r
		}
	}
	return nil
}

// fork roots and searches r's tree on a branch of the group, under the
// current guess's context and with its own meter, in a "tree-scan" span
// under phase that carries the attribute key = v.
func (ts *treeSearches) fork(r *treeRun, phase trace.SpanRef, key string, v int) {
	ctx := ts.ctx
	ts.group.Go(func() {
		// Cancellation checkpoint between trees: a canceled context skips
		// every search that has not started yet.
		if err := ctx.Err(); err != nil {
			r.err = fmt.Errorf("canceled: %w", err)
			return
		}
		sp := phase.Child("tree-scan").AttrInt(key, int64(v))
		defer sp.End()
		edges := make([][2]int32, len(r.tree))
		for j, ei := range r.tree {
			e := ts.g.Edge(int(ei))
			edges[j] = [2]int32{e.U, e.V}
		}
		parent, err := tree.RootEdgeList(ts.g.N(), edges, 0, ts.pool, &r.meter)
		if err != nil {
			r.err = err
			return
		}
		r.value, r.witness, r.err = ts.search(ctx, parent, &r.meter, ts.sink, sp)
		if r.err == nil {
			ts.settle(r, searched)
		}
	})
}

// stop cancels every search still running and joins them all. The solve
// defers it, so no search outlives its solve, whichever way it returns.
func (ts *treeSearches) stop() {
	if ts.cancel != nil {
		ts.cancel()
	}
	ts.group.Wait()
}
