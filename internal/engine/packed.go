package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
)

func init() {
	// One init registers every built-in so the registration order — which
	// Names() exposes and tests pin — does not depend on file names.
	Register(packedEngine{name: "geissmann", search: core.Boughs})
	Register(stoerWagnerEngine{})
	Register(kargerSteinEngine{})
	Register(packedEngine{name: "andersonblelloch", search: core.HeavyPaths})
}

// packedEngine is the paper's packed-tree pipeline (core.Solve) behind
// the Engine seam: Karger tree packing, then every sampled tree searched
// for its smallest cut crossing at most two tree edges, Monte Carlo whp.
// Its instances differ only in that per-tree search, and every search is
// exact per tree, so all of them return bit-identical results.
type packedEngine struct {
	name   string
	search core.Search
}

func (e packedEngine) Name() string { return e.name }

func (packedEngine) Caps() Caps {
	return Caps{Seeded: true, BoostDecomposable: true}
}

func (e packedEngine) Solve(ctx context.Context, g *graph.Graph, opt Options) (Result, error) {
	r, err := core.Solve(ctx, g, core.Options{
		Seed:          opt.Seed,
		WantPartition: opt.WantPartition,
		Pool:          opt.Pool,
		Meter:         opt.Meter,
		Progress:      opt.Progress,
		Trace:         opt.Trace,
	}, e.search)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: r.Value, InCut: r.InCut, TreesScanned: r.TreesScanned}, nil
}
