// Package engine makes the solver backend a first-class, selectable
// resource. An Engine computes one minimum cut run behind a narrow seam —
// Solve(ctx, graph, Options) — with the same cross-cutting facilities the
// paper solver enjoys threaded through Options: cooperative cancellation,
// a bounded-width par.Pool, a progress sink, and a trace span. The
// registry names each engine so the scheduler can key result caches, the
// HTTP API can accept an "engine" field, and metrics/traces can label
// work by backend.
//
// Three engines are built in:
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
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/wd"
)

// Default is the engine used when a caller names none: the paper's solver.
const Default = "geissmann"

// Auto is the pseudo-engine name that selects a concrete engine from the
// graph's size via Select. It never reaches Solve: resolve it with
// Resolve before caching or scheduling so "auto" and an explicit choice
// of the same engine share result-cache entries.
const Auto = "auto"

// Options carry one run's inputs and instrumentation. Every field mirrors
// the corresponding parcut/core option; engines ignore fields their Caps
// do not claim (e.g. Seed on an exact engine), and the normalization in
// upper layers relies on that.
type Options struct {
	// Seed fixes the run's randomness; ignored by exact engines.
	Seed int64
	// WantPartition requests InCut in the result. Engines that compute a
	// partition anyway (the exact baseline) still return nil without it,
	// so results are canonical for caching.
	WantPartition bool
	// Pool is the executor the run's parallel primitives use (nil = the
	// shared default pool). Results are identical at every pool width.
	Pool *par.Pool
	// Meter, when non-nil, accumulates Work-Depth model costs (the
	// packed-tree engines meter themselves; the baselines leave it
	// untouched).
	Meter *wd.Meter
	// Progress, when non-nil, receives live phase/counter updates at the
	// run's cancellation seams.
	Progress *progress.Sink
	// Trace, when active, receives the run's phase span tree.
	Trace trace.SpanRef
}

// Result is one run's outcome.
type Result struct {
	// Value is the cut weight found by this run.
	Value int64
	// InCut marks one side of the cut (nil unless Options.WantPartition).
	InCut []bool
	// TreesScanned counts the engine's coarse work units: spanning trees
	// scanned (geissmann, andersonblelloch), 0 for the exact engine.
	TreesScanned int
}

// Caps declare what an engine can do, so feature gating upstream is
// structural rather than name-based.
type Caps struct {
	// Exact: the result is the true minimum cut deterministically (not
	// Monte Carlo), so it ignores Options.Seed and gains nothing from
	// boosting. An engine that is not exact depends on the seed, and
	// repeating it with BoostSeed-derived seeds and keeping the smallest
	// cut lowers its failure probability.
	Exact bool
}

// Engine computes one minimum cut run. Implementations must be safe for
// concurrent Solve calls and deterministic in (graph, Options.Seed) at
// every pool width.
type Engine interface {
	// Name is the engine's registry key, wire name, and metric label.
	Name() string
	// Caps reports the engine's capabilities.
	Caps() Caps
	// Solve computes one run. Boosting (minimum over several seeded runs)
	// is the caller's loop, skipped when Caps.Exact.
	Solve(ctx context.Context, g *graph.Graph, opt Options) (Result, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Engine)
	regOrder []string
)

// Register adds an engine under its Name. It panics on a duplicate or
// empty name — registration is a process-setup step, not a runtime path.
func Register(e Engine) {
	name := e.Name()
	if name == "" || name == Auto {
		panic(fmt.Sprintf("engine: invalid engine name %q", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate engine %q", name))
	}
	registry[name] = e
	regOrder = append(regOrder, name)
}

// Lookup returns the engine registered under name.
func Lookup(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names lists the registered engines in registration order (the built-ins
// first: geissmann, stoerwagner, andersonblelloch).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// Resolve maps a requested engine name to a concrete Engine: "" means
// Default, Auto selects by the graph's size (n vertices, m edges), and
// anything else must be registered. The error lists the valid names.
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
