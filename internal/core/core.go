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
// with one log factor less work, so both return bit-identical results.
// MinCut runs the pipeline with Boughs.
package core

import (
	"context"
	"fmt"

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
	// per-attempt, per-tree, and per-tree-search children. Like Progress
	// it is write-only — attaching a recorder never changes the Result at
	// any pool width — and the zero SpanRef costs one branch per seam.
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
	// Estimate is the accepted cut estimate from the packing phase.
	Estimate int64
	// PackValue is the tree packing's value.
	PackValue float64
}

// Search is the pipeline's per-tree step (Lemma 13). Solve calls it once
// per solve, after the packing, with g's weighted degrees; the TreeSearch
// it returns is then called concurrently, once per packed tree, so state
// every tree shares is built here once.
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
// ctx is checked before the packing phase, at the start of every tree,
// and wherever search checks it (between bough phases, or between heavy
// paths), so a canceled context stops the computation within one phase
// of work. With Options.WantPartition the returned partition is
// re-weighed once, whichever branch produced it, and a mismatch with the
// reported value is an error.
func Solve(ctx context.Context, g *graph.Graph, opt Options, search Search) (Result, error) {
	res, witness, err := minCut(ctx, g, opt, search)
	if err != nil || !opt.WantPartition {
		return res, err
	}
	inCut, err := witness(opt.Meter)
	if err != nil {
		return Result{}, fmt.Errorf("core: witness extraction failed: %v", err)
	}
	if got := g.CutValueOn(opt.Pool, inCut); got != res.Value {
		return Result{}, fmt.Errorf("core: partition weighs %d, reported value %d", got, res.Value)
	}
	res.InCut = inCut
	return res, nil
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
	sink.EnterPhase(progress.PhasePacking)
	packSp := opt.Trace.Child("packing")
	pk, err := packing.SampleTreesContext(ctx, g, packing.Options{Seed: opt.Seed + 1}, pool, m, sink, packSp)
	if err != nil {
		packSp.End()
		if ctx.Err() != nil {
			return Result{}, nil, fmt.Errorf("core: tree packing canceled: %w", ctx.Err())
		}
		return Result{}, nil, fmt.Errorf("core: tree packing failed: %v", err)
	}
	packSp.AttrInt("trees", int64(len(pk.Trees))).AttrInt("estimate", pk.Estimate).
		AttrInt("packings", int64(pk.Packings)).End()
	// Search every tree in parallel; each search is itself parallel.
	scanTree := search(g, deg, pool)
	type treeOut struct {
		value   int64
		witness Witness
		err     error
	}
	outs := make([]treeOut, len(pk.Trees))
	locals := make([]*wd.Meter, len(pk.Trees))
	sink.AddTrees(int64(len(pk.Trees)))
	sink.EnterPhase(progress.PhaseScan)
	scanSp := opt.Trace.Child("scan").AttrInt("trees", int64(len(pk.Trees)))
	var obs par.RegionFunc
	if scanSp.Active() {
		obs = func(name string, items, width int) func() {
			fsp := scanSp.Child(name).AttrInt("items", int64(items)).AttrInt("width", int64(width))
			return fsp.End
		}
	}
	pool.ForGrainRegion("fork:trees", obs, len(pk.Trees), 1, func(i int) {
		// Cancellation checkpoint between trees: a canceled context skips
		// every search that has not started yet.
		if err := ctx.Err(); err != nil {
			outs[i].err = fmt.Errorf("canceled: %w", err)
			return
		}
		tsp := scanSp.Child("tree-scan").AttrInt("tree", int64(i))
		defer tsp.End()
		edges := make([][2]int32, len(pk.Trees[i]))
		for j, ei := range pk.Trees[i] {
			e := g.Edge(int(ei))
			edges[j] = [2]int32{e.U, e.V}
		}
		locals[i] = new(wd.Meter)
		parent, err := tree.RootEdgeList(n, edges, 0, pool, locals[i])
		if err != nil {
			outs[i].err = err
			return
		}
		v, w, err := scanTree(ctx, parent, locals[i], sink, tsp)
		outs[i] = treeOut{value: v, witness: w, err: err}
		if err == nil {
			sink.TreeDone()
		}
	})
	scanSp.End()
	m.Par(locals...) // trees are searched in parallel (§4.3 step 3)
	best := Result{Value: minDeg, TreesScanned: len(pk.Trees), Estimate: pk.Estimate, PackValue: pk.PackValue}
	// The singleton minimum-degree cut wins unless some tree beats it.
	witness := Witness(func(*wd.Meter) ([]bool, error) {
		inCut := make([]bool, n)
		inCut[minDegV] = true
		return inCut, nil
	})
	for i, o := range outs {
		if o.err != nil {
			return Result{}, nil, fmt.Errorf("core: tree %d scan failed: %w", i, o.err)
		}
		if o.value < best.Value {
			best.Value, witness = o.value, o.witness
		}
	}
	return best, witness, nil
}
