// Package engine makes the solver backend a first-class, selectable
// resource. An Engine computes one minimum cut run behind a narrow seam —
// Solve(ctx, graph, core.Options) — with the same cross-cutting
// facilities the paper solver enjoys threaded through core.Options:
// cooperative cancellation, a bounded-width par.Pool, a progress sink,
// and a trace span. A fixed
// table names each engine so the scheduler can key result caches, the
// HTTP API can accept an "engine" field, and metrics/traces can label
// work by backend over a label space known at compile time.
//
// The table holds three engines:
//
//   - "geissmann" and "andersonblelloch": two instances of one engine
//     type running the paper's packed-tree pipeline (core.Solve) —
//     near-linear work, polylog depth, Monte Carlo. They differ only in
//     the per-tree search: geissmann uses the paper's bough decomposition
//     (core.Boughs), andersonblelloch the Anderson–Blelloch heavy-path
//     sweep (core.HeavyPaths), which does one log factor less work per
//     tree. Both searches are exact per tree, so the two return the same
//     value and tree count; when a tree crosses two minimum cuts they may
//     pick different partitions of that weight.
//   - "stoerwagner": the exact deterministic engine, served by
//     baseline.NagamochiIbaraki: maximum-adjacency passes with
//     Nagamochi–Ibaraki contraction, O(n³) worst case. Each pass merges
//     every pair it certifies, so a dense graph takes a few passes
//     instead of Stoer–Wagner's n−1 phases. It is the right choice for
//     small or dense graphs, where polylog machinery loses to tuned
//     sequential code.
//
// Karger–Stein recursive contraction is not served: it is dominated on
// every measured cell, so it lives on only as an oracle and Table 1
// comparator in internal/baseline.
//
// Engines declare capabilities (Caps) so upper layers can gate features
// structurally instead of by name: the boost loop runs once on an exact
// engine, and the seed and boost an exact engine ignores are normalized
// away before result-cache keying so equivalent requests share cache
// entries.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Default is the engine used when a caller names none: the paper's solver.
const Default = "geissmann"

// Auto is the pseudo-engine name that selects a concrete engine from the
// graph's size via Select. It never reaches Solve: resolve it with
// Resolve before caching or scheduling so "auto" and an explicit choice
// of the same engine share result-cache entries.
const Auto = "auto"

// Caps declare what an engine can do, so feature gating upstream is
// structural rather than name-based.
type Caps struct {
	// Exact: the result is the true minimum cut deterministically (not
	// Monte Carlo), so it ignores core.Options.Seed and gains nothing from
	// boosting. An engine that is not exact depends on the seed, and
	// repeating it with BoostSeed-derived seeds and keeping the smallest
	// cut lowers its failure probability.
	Exact bool
}

// Engine computes one minimum cut run. Implementations must be safe for
// concurrent Solve calls and deterministic in (graph, core.Options.Seed)
// at every pool width. An engine ignores the options its Caps do not
// claim (e.g. Seed on an exact engine), and the normalization in upper
// layers relies on that.
type Engine interface {
	// Name is the engine's table key, wire name, and metric label.
	Name() string
	// Caps reports the engine's capabilities.
	Caps() Caps
	// Solve computes one run. Boosting (minimum over several seeded runs)
	// is the caller's loop, skipped when Caps.Exact. Result.InCut is nil
	// unless opt.WantPartition, even for an engine that computes a
	// partition anyway, so results are canonical for caching.
	// Result.TreesScanned is 0 for the exact engine.
	Solve(ctx context.Context, g *graph.Graph, opt core.Options) (core.Result, error)
}

// engines is the fixed engine table, in the order Names reports.
var engines = [...]Engine{
	packedEngine{name: "geissmann", search: core.Boughs},
	stoerWagnerEngine{},
	packedEngine{name: "andersonblelloch", search: core.HeavyPaths},
}

// Count is the number of engines, so per-engine tables (the scheduler's
// metric cells) can be arrays.
const Count = len(engines)

// Lookup returns the engine named name.
func Lookup(name string) (Engine, bool) {
	for _, e := range engines {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

// Names lists the engines in table order: geissmann, stoerwagner,
// andersonblelloch.
func Names() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.Name()
	}
	return names
}

// Resolve maps a requested engine name to a concrete Engine: "" means
// Default, Auto selects by the graph's size (n vertices, m edges), and
// anything else must name an engine. The error lists the valid names.
func Resolve(name string, n, m int) (Engine, error) {
	switch name {
	case "":
		name = Default
	case Auto:
		name = Select(n, m)
	}
	e, ok := Lookup(name)
	if !ok {
		valid := Names()
		sort.Strings(valid)
		return nil, fmt.Errorf("engine: unknown engine %q (have %s, %s)",
			name, strings.Join(valid, ", "), Auto)
	}
	return e, nil
}

// ResolveWire is Resolve for an engine name taken from a service request,
// where "" means Auto instead of Default: a client that names no engine
// gets the one Select picks for the graph's size.
func ResolveWire(name string, n, m int) (Engine, error) {
	if name == "" {
		name = Auto
	}
	return Resolve(name, n, m)
}
