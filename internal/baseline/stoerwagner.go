// Package baseline implements the comparison algorithms of the paper's
// Table 1 and related work section: Stoer–Wagner's deterministic minimum
// cut (the exact oracle for correctness experiments, §1.2.2 [32]),
// Karger–Stein recursive contraction (the classic Θ(n² polylog) Monte
// Carlo algorithm, §1.2.3 [18], which is also the "best previous
// polylog-depth, quadratic-work" regime the paper improves on), and
// exhaustive enumeration for tiny instances.
//
// Stoer–Wagner also comes in a Context form (cancellation, par.Pool,
// progress, tracing) so internal/engine can serve it behind the same
// scheduler seams as the paper solver; Karger–Stein is a sequential
// oracle and Table 1 comparator only.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
)

// swGrain keeps the pool off tiny inner loops: the O(n) weight
// accumulation per maximum-adjacency step only forks once a phase has at
// least this many active supernodes. Below it, fork overhead dominates
// the loop body.
const swGrain = 2048

// StoerWagner computes an exact global minimum cut deterministically in
// O(n³) time (the simple array implementation of the O(nm + n² log n)
// algorithm). A disconnected graph yields value 0. Returns the cut value
// and one side of an optimal partition.
func StoerWagner(g *graph.Graph) (int64, []bool, error) {
	return StoerWagnerContext(context.Background(), g, nil, nil, trace.SpanRef{})
}

// StoerWagnerContext is StoerWagner promoted to a serveable engine: ctx
// is checked between contraction phases (there are n-1 of them, each
// O(active²) work) so cancellation is prompt; the per-phase weight
// loops run on pool (nil means the shared default pool) — every parallel
// loop writes disjoint indices and the phase's vertex selection stays
// sequential, so the result is bit-identical at every pool width; sink
// (nil-safe) enters PhaseContract and counts one coarse step per
// contraction phase on the tree counters, notifying at the same seam
// where ctx is checked; sp, when active, gains one "contract" child span
// tagged with the phase count.
func StoerWagnerContext(ctx context.Context, g *graph.Graph, pool *par.Pool, sink *progress.Sink, sp trace.SpanRef) (int64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, fmt.Errorf("baseline: minimum cut needs at least 2 vertices")
	}
	csp := sp.Child("contract")
	defer csp.End()
	csp.AttrInt("phases", int64(n-1))
	sink.EnterPhase(progress.PhaseContract)
	sink.AddTrees(int64(n - 1))
	// Dense weight matrix with parallel edges merged; loops dropped.
	w := make([]int64, n*n)
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		w[int(e.U)*n+int(e.V)] += e.W
		w[int(e.V)*n+int(e.U)] += e.W
	}
	// groups[v] lists the original vertices merged into supernode v.
	groups := make([][]int32, n)
	for v := range groups {
		groups[v] = []int32{int32(v)}
	}
	active := make([]int32, n)
	for i := range active {
		active[i] = int32(i)
	}
	bestVal := int64(-1)
	var bestGroup []int32
	weight := make([]int64, n) // connectivity to the growing set A
	inA := make([]bool, n)
	for len(active) > 1 {
		if err := ctx.Err(); err != nil {
			return 0, nil, fmt.Errorf("baseline: canceled: %w", err)
		}
		// Maximum adjacency (minimum cut phase) search.
		for _, v := range active {
			weight[v] = 0
			inA[v] = false
		}
		var prev, last int32 = -1, active[0]
		inA[last] = true
		pool.ForGrain(len(active), swGrain, func(i int) {
			if u := active[i]; u != last {
				weight[u] = w[int(last)*n+int(u)]
			}
		})
		for step := 1; step < len(active); step++ {
			// The selection scans sequentially so ties break by position,
			// independent of pool width.
			var pick int32 = -1
			for _, u := range active {
				if !inA[u] && (pick < 0 || weight[u] > weight[pick]) {
					pick = u
				}
			}
			inA[pick] = true
			prev, last = last, pick
			if step < len(active)-1 {
				pool.ForGrain(len(active), swGrain, func(i int) {
					if u := active[i]; !inA[u] {
						weight[u] += w[int(pick)*n+int(u)]
					}
				})
			}
		}
		// Cut-of-the-phase: the last vertex alone against the rest.
		if bestVal < 0 || weight[last] < bestVal {
			bestVal = weight[last]
			bestGroup = append([]int32(nil), groups[last]...)
		}
		// Merge last into prev.
		pool.ForGrain(len(active), swGrain, func(i int) {
			if u := active[i]; u != last && u != prev {
				w[int(prev)*n+int(u)] += w[int(last)*n+int(u)]
				w[int(u)*n+int(prev)] = w[int(prev)*n+int(u)]
			}
		})
		groups[prev] = append(groups[prev], groups[last]...)
		out := active[:0]
		for _, u := range active {
			if u != last {
				out = append(out, u)
			}
		}
		active = out
		sink.TreeDone()
	}
	inCut := make([]bool, n)
	for _, v := range bestGroup {
		inCut[v] = true
	}
	return bestVal, inCut, nil
}
