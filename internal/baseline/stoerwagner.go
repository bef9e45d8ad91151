// Package baseline implements the comparison algorithms of the paper's
// Table 1 and related work section: Stoer–Wagner's deterministic minimum
// cut (the exact oracle for correctness experiments, §1.2.2 [32]),
// Karger–Stein recursive contraction (the classic Θ(n² polylog) Monte
// Carlo algorithm, §1.2.3 [18], which is also the "best previous
// polylog-depth, quadratic-work" regime the paper improves on), and
// exhaustive enumeration for tiny instances.
//
// The exact kernel internal/engine serves as "stoerwagner" is
// NagamochiIbaraki: maximum-adjacency passes with Nagamochi–Ibaraki
// contraction, O(n³) worst case, with cancellation, progress, tracing and
// arena scratch. StoerWagner stays as Table 1's column and the independent
// oracle the kernel is tested against; Karger–Stein is a sequential
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

// StoerWagner computes an exact global minimum cut deterministically in
// O(n³) time (the simple array implementation of the O(nm + n² log n)
// algorithm). A disconnected graph yields value 0. Returns the cut value
// and one side of an optimal partition.
func StoerWagner(g *graph.Graph) (int64, []bool, error) {
	return StoerWagnerContext(context.Background(), g, nil, nil, trace.SpanRef{})
}

// StoerWagnerContext is StoerWagner with cancellation, progress and
// tracing. No engine serves it (NagamochiIbaraki is the served kernel);
// StoerWagner and cutbench's traced run call it. ctx is checked between
// contraction phases (there are n-1 of them, each O(active²) work); sink
// (nil-safe) enters PhaseContract and counts one coarse step per
// contraction phase on the tree counters, notifying at the same seam
// where ctx is checked; sp, when active, gains one "contract" child span
// tagged with the phase count.
//
// Every loop is sequential, and each maximum-adjacency step is one pass
// over the supernodes not yet in A: it adds the newest member's matrix
// row to their weights, drops that member from the list and keeps the
// first maximum as the next pick. pool is unused: a step is O(active)
// work. The parameter stays because cutbench's traced run passes its
// executor.
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
	// The original vertices merged into supernode v form the chain v,
	// next[v], … , tail[v]. A merge links last's chain after prev's and
	// changes no link inside either, so the side of the best phase stays
	// the run from its recorded head to its recorded tail.
	tail := make([]int32, n)
	next := make([]int32, n)
	active := make([]int32, n)
	for v := range active {
		tail[v], next[v], active[v] = int32(v), -1, int32(v)
	}
	// rest holds the supernodes not yet in A, in active order, and
	// restW their connectivity to A, position for position.
	rest := make([]int32, n)
	restW := make([]int64, n)
	bestVal := int64(-1)
	var bestHead, bestTail int32
	for len(active) > 1 {
		if err := ctx.Err(); err != nil {
			return 0, nil, fmt.Errorf("baseline: canceled: %w", err)
		}
		// Maximum adjacency (minimum cut phase) search from A = {active[0]}.
		// Each pass adds the row of last, A's newest member, to the
		// weights in rest, drops last from rest and picks the first
		// maximum; the phase ends when rest holds only last.
		rest = append(rest[:0], active...)
		restW = restW[:len(active)]
		clear(restW)
		var prev, last int32 = -1, active[0]
		for len(rest) > 1 {
			row := w[int(last)*n : int(last)*n+n]
			// Weights are at least 0, so the first candidate beats -1.
			k, pick, pickW := 0, 0, int64(-1)
			for i, u := range rest {
				if u == last {
					continue
				}
				x := restW[i] + row[u]
				rest[k], restW[k] = u, x
				if x > pickW {
					pick, pickW = k, x
				}
				k++
			}
			rest, restW = rest[:k], restW[:k]
			prev, last = last, rest[pick]
		}
		// Cut-of-the-phase: the last vertex alone against the rest.
		if bestVal < 0 || restW[0] < bestVal {
			bestVal = restW[0]
			bestHead, bestTail = last, tail[last]
		}
		// Merge last into prev and drop it from active.
		out := active[:0]
		for _, u := range active {
			if u == last {
				continue
			}
			if u != prev {
				w[int(prev)*n+int(u)] += w[int(last)*n+int(u)]
				w[int(u)*n+int(prev)] = w[int(prev)*n+int(u)]
			}
			out = append(out, u)
		}
		active = out
		next[tail[prev]] = last
		tail[prev] = tail[last]
		sink.TreeDone()
	}
	inCut := make([]bool, n)
	for v := bestHead; ; v = next[v] {
		inCut[v] = true
		if v == bestTail {
			break
		}
	}
	return bestVal, inCut, nil
}
