package engine

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// stoerWagnerEngine serves baseline.StoerWagnerContext: exact,
// deterministic, O(n³). Seed-insensitive and single-run (boosting an
// exact algorithm is pure waste), so upper layers normalize Seed and
// Boost away before cache keying.
type stoerWagnerEngine struct{}

func (stoerWagnerEngine) Name() string { return "stoerwagner" }

func (stoerWagnerEngine) Caps() Caps {
	return Caps{Exact: true}
}

func (stoerWagnerEngine) Solve(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	v, inCut, err := baseline.StoerWagnerContext(ctx, g, opt.Pool, opt.Progress, opt.Trace)
	if err != nil {
		return Result{}, err
	}
	if !opt.WantPartition {
		inCut = nil
	}
	return Result{Value: v, InCut: inCut}, nil
}
