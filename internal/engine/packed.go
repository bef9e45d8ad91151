package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
)

// packedEngine is the paper's packed-tree pipeline (core.Solve) behind
// the Engine seam: Karger tree packing, then every sampled tree searched
// for its smallest cut crossing at most two tree edges, Monte Carlo whp.
// Its instances differ only in that per-tree search, and every search is
// exact per tree, so all of them return the same value and tree count.
type packedEngine struct {
	name   string
	search core.Search
}

func (e packedEngine) Name() string { return e.name }

func (packedEngine) Caps() Caps {
	return Caps{}
}

func (e packedEngine) Solve(ctx context.Context, g *graph.Graph, opt core.Options) (core.Result, error) {
	return core.Solve(ctx, g, opt, e.search)
}
