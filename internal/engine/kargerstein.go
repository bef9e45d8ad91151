package engine

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// kargerSteinEngine serves baseline.KargerSteinContext: randomized
// recursive contraction, Θ(n² log³ n) work per solve (⌈log²n⌉+1 pooled
// trials), seedable and boost-decomposable like the paper solver.
type kargerSteinEngine struct{}

func (kargerSteinEngine) Name() string { return "kargerstein" }

func (kargerSteinEngine) Caps() Caps {
	return Caps{Seeded: true, BoostDecomposable: true}
}

func (kargerSteinEngine) Solve(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	v, inCut, err := baseline.KargerSteinContext(ctx, g, opt.Seed, opt.Pool, opt.Progress, opt.Trace)
	if err != nil {
		return Result{}, err
	}
	if !opt.WantPartition {
		inCut = nil
	}
	return Result{Value: v, InCut: inCut, TreesScanned: baseline.KargerSteinTrials(g.N())}, nil
}
