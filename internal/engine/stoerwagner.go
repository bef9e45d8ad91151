package engine

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
)

// stoerWagnerEngine serves baseline.NagamochiIbaraki: maximum-adjacency
// passes with Nagamochi–Ibaraki contraction, O(n³) worst case, exact and
// deterministic. Seed-insensitive and single-run (boosting an exact
// algorithm is pure waste), so upper layers normalize Seed and Boost away
// before cache keying. A partition it returns is re-weighed in O(m)
// first, as the packed-tree engines' are.
type stoerWagnerEngine struct{}

func (stoerWagnerEngine) Name() string { return "stoerwagner" }

func (stoerWagnerEngine) Caps() Caps {
	return Caps{Exact: true}
}

func (stoerWagnerEngine) Solve(ctx context.Context, g *graph.Graph, opt core.Options) (core.Result, error) {
	v, inCut, err := baseline.NagamochiIbaraki(ctx, g, opt.Pool, opt.Progress, opt.Trace)
	if err != nil {
		return core.Result{}, err
	}
	if !opt.WantPartition {
		return core.Result{Value: v}, nil
	}
	if err := core.CheckPartition(g, opt.Pool, inCut, v); err != nil {
		return core.Result{}, fmt.Errorf("stoerwagner: %w", err)
	}
	return core.Result{Value: v, InCut: inCut}, nil
}
