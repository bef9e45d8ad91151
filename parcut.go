// Package parcut computes global minimum cuts of weighted undirected
// graphs with the near-linear-work, poly-logarithmic-depth parallel
// algorithm of Geissmann and Gianinazzi, "Parallel Minimum Cuts in
// Near-linear Work and Low Depth" (SPAA 2018): O(m log⁴ n) work and
// O(log³ n) depth, Monte Carlo with high probability.
//
// The package also exposes the paper's two reusable building blocks:
//
//   - ConstrainedMinCut: the smallest cut crossing at most two edges of a
//     given spanning tree (the paper's §4 subproblem), deterministic.
//   - PathAggregator: the parallel batched Minimum Path structure of §3
//     (AddPath/MinPath on vertex-weighted rooted trees).
//
// Quick start:
//
//	g := parcut.NewGraph(4)
//	g.AddEdge(0, 1, 3)
//	g.AddEdge(1, 2, 1)
//	g.AddEdge(2, 3, 4)
//	g.AddEdge(3, 0, 2)
//	res, err := parcut.MinCut(g, parcut.Options{Seed: 1, WantPartition: true})
//	// res.Value == 3, res.InCut partitions the cycle at its two
//	// lightest edges.
package parcut

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/respect"
	"repro/internal/trace"
	"repro/internal/wd"
)

// Executor is a reusable bounded-width parallel execution context: a set
// of long-lived worker goroutines that every parallel primitive of a solve
// runs on. Create one per logically independent solver (for example, one
// per service worker) to make the process's total parallelism explicit —
// concurrent solves on separate executors use width₁+width₂ CPUs, never
// more — and reuse it across solves to avoid per-call worker start-up.
// A nil *Executor is valid and means the shared process-wide default
// executor (width GOMAXPROCS).
type Executor struct {
	pool *par.Pool
}

// NewExecutor returns an executor of the given width (number of CPU lanes;
// <= 0 means all cores). Close it when done to release the workers.
func NewExecutor(width int) *Executor {
	return &Executor{pool: par.NewPool(width)}
}

// Width reports the executor's parallelism.
func (e *Executor) Width() int { return e.unwrap().Width() }

// Close releases the executor's workers. Solves still in flight on the
// executor complete correctly (they degrade to sequential execution).
// Close is idempotent; closing the nil (default) executor is a no-op.
func (e *Executor) Close() {
	if e != nil {
		e.pool.Close()
	}
}

// unwrap resolves the nil-means-default convention.
func (e *Executor) unwrap() *par.Pool {
	if e == nil {
		return nil
	}
	return e.pool
}

// PoolStats is a point-in-time snapshot of an executor's scheduling and
// scratch-arena counters. All counters are cumulative since the executor
// was created.
type PoolStats struct {
	// Steals counts branches taken from another lane's deque by idle
	// lanes; LocalPushes/SharedPushes/OverflowPushes classify where forked
	// branches were enqueued (the forking lane's own deque, another
	// lane's, or the shared overflow queue). InlineRuns counts forks that
	// ran inline in the forking goroutine — always 0 on an open executor
	// of width > 1.
	Steals, LocalPushes, SharedPushes, OverflowPushes, InlineRuns int64
	// ArenaHits and ArenaMisses count recycled vs freshly allocated
	// scratch borrows in the executor's solve arena.
	ArenaHits, ArenaMisses int64
}

// Stats snapshots the executor's counters (the shared default executor's
// for a nil receiver).
func (e *Executor) Stats() PoolStats {
	st := e.unwrap().Stats()
	return PoolStats{
		Steals:         st.Steals,
		LocalPushes:    st.LocalPushes,
		SharedPushes:   st.SharedPushes,
		OverflowPushes: st.OverflowPushes,
		InlineRuns:     st.InlineRuns,
		ArenaHits:      st.ArenaHits,
		ArenaMisses:    st.ArenaMisses,
	}
}

// Tuning holds the per-primitive sequential cutoffs of the parallel
// primitives (loops, scans, reductions, merges, sorts): below its cutoff
// a primitive runs sequentially in the caller. Zero fields mean the
// built-in baseline; cutoffs never change results, only constant factors.
type Tuning = par.Tuning

// Calibrate measures this machine's parallel-vs-sequential crossover per
// primitive (once per process; subsequent calls return the cached result)
// and returns the resulting cutoffs. Install them with SetDefaultTuning,
// or per executor with Executor.SetTuning.
func Calibrate() Tuning { return par.CalibrateOnce() }

// SetDefaultTuning installs process-wide cutoff defaults, applied to
// every executor without a per-executor override.
func SetDefaultTuning(t Tuning) { par.SetDefaultTuning(t) }

// SetTuning overrides the cutoffs for this executor only (for a nil
// receiver, the shared default executor).
func (e *Executor) SetTuning(t Tuning) { e.unwrap().SetTuning(t) }

// executionPool resolves the executor a call with these options runs on,
// and whether the call owns it (and must close it when done).
func (o Options) executionPool() (pool *par.Pool, owned bool) {
	if o.Executor != nil {
		return o.Executor.pool, false
	}
	if o.Parallelism > 0 {
		p := par.NewPool(o.Parallelism)
		if o.Tuning != nil {
			p.SetTuning(*o.Tuning)
		}
		return p, true
	}
	return nil, false
}

// Graph is a weighted undirected multigraph on vertices 0..n-1. Parallel
// edges are allowed; weights must be positive integers; the total weight
// must stay below 2^40 (enforced by AddEdge) so that the internal
// difference arithmetic is exact.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	return &Graph{g: graph.New(n)}
}

// AddEdge adds the undirected edge {u, v} with weight w.
func (G *Graph) AddEdge(u, v int, w int64) error {
	return G.g.AddEdge(u, v, w)
}

// N returns the number of vertices.
func (G *Graph) N() int { return G.g.N() }

// M returns the number of edges.
func (G *Graph) M() int { return G.g.M() }

// TotalWeight returns the sum of all edge weights.
func (G *Graph) TotalWeight() int64 { return G.g.TotalWeight() }

// CutValue evaluates the total weight crossing the given partition
// (inCut[v] marks one side).
func (G *Graph) CutValue(inCut []bool) int64 { return G.g.CutValue(inCut) }

// CutEdge is one edge crossing a cut.
type CutEdge struct {
	U, V int
	W    int64
}

// CutEdges lists the edges crossing the given partition, in input order —
// the paper notes the algorithm "can be easily adapted to also output the
// edges that define the cut" (§4.3); combined with the partition from
// MinCut this realizes that.
func (G *Graph) CutEdges(inCut []bool) []CutEdge {
	var out []CutEdge
	for _, e := range G.g.Edges() {
		if inCut[e.U] != inCut[e.V] {
			out = append(out, CutEdge{U: int(e.U), V: int(e.V), W: e.W})
		}
	}
	return out
}

// Write serializes the graph in the package's DIMACS-like text format.
func (G *Graph) Write(w io.Writer) error { return graph.Write(w, G.g) }

// Canonical returns a copy of the graph in canonical edge order: each
// edge stored with U <= V and the edge list sorted by (U, V, W). Two
// graphs that differ only in edge input order or endpoint order have
// identical Canonical forms — and therefore identical Write output — so
// hashing the canonical serialization content-addresses the graph itself
// rather than one particular encoding of it.
func (G *Graph) Canonical() *Graph {
	return &Graph{g: G.g.Canonical()}
}

// ReadGraph parses a graph written by Write.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Options configure MinCut and ConstrainedMinCut.
type Options struct {
	// Engine selects the solver backend by name: "geissmann" (the paper's
	// parallel solver — the default when empty), "andersonblelloch" (the
	// same tree packing searched with the Anderson–Blelloch compact
	// 2-respecting scan; bit-identical values, less work per tree),
	// "stoerwagner" (exact, deterministic O(n³) baseline), "kargerstein"
	// (randomized recursive contraction), or "auto" (pick by graph size:
	// small or dense graphs go to the sequential exact baseline, larger
	// ones to the Anderson–Blelloch scan). Engines() lists the registered
	// names. Options an engine cannot use are ignored: Boost runs once on
	// non-boostable engines, Seed is irrelevant to exact ones.
	Engine string
	// Seed fixes all randomness; two runs with the same seed and input
	// return identical results. The zero seed is a valid fixed seed.
	Seed int64
	// WantPartition additionally reconstructs a partition achieving the
	// returned value.
	WantPartition bool
	// CollectStats fills Result.Work / Result.Depth with Work-Depth model
	// accounting.
	CollectStats bool
	// Boost repeats the Monte Carlo pipeline with independent seeds and
	// keeps the smallest cut found, driving the (already small) failure
	// probability down exponentially. 0 and 1 both mean a single run.
	Boost int
	// Parallelism bounds the number of CPU lanes the solve uses: the call
	// runs on a dedicated executor of that width, created for the call.
	// 0 means all cores (the shared process-wide executor). The result is
	// identical at every parallelism — width is purely a resource knob.
	Parallelism int
	// Executor, when non-nil, runs the solve on a caller-owned reusable
	// executor (see NewExecutor) instead; it takes precedence over
	// Parallelism. Long-lived callers issuing many solves should prefer
	// an Executor so workers persist across calls.
	Executor *Executor
	// Tuning, when non-nil, overrides the per-primitive sequential
	// cutoffs for the call's dedicated executor. It applies only when the
	// call creates its own executor (Parallelism > 0): a caller-owned
	// Executor keeps whatever SetTuning configured on it, and the shared
	// default executor follows SetDefaultTuning. Cutoffs never change the
	// Result, only speed.
	Tuning *Tuning
	// Progress, when non-nil, receives live progress updates (current
	// phase, packing rounds, trees scanned, boost runs completed) while
	// the solve runs. Attach a fresh Progress per solve; attaching one
	// never changes the Result at any parallelism.
	Progress *Progress
	// Trace, when active, receives a span tree attributing the solve's
	// wall clock: one "run" span per boost run, each with "packing" and
	// "scan" phase children down to per-tree and per-bough-phase spans.
	// The zero value disables tracing at no cost. Like Progress it is
	// write-only: attaching a span never changes the Result. The field's
	// type lives in an internal package, so it is settable only from
	// within this module — the mincutd service uses it; external callers
	// leave it zero.
	Trace trace.SpanRef
}

// ProgressSnapshot is a point-in-time view of a running solve. Totals are
// the planned amounts known so far; they grow as the solve learns more
// (each packing attempt plans more rounds, each boost run adds trees), so
// done/total fractions can dip when a phase re-plans.
type ProgressSnapshot struct {
	// Phase is "none", "packing", "scan", or (for the contraction-based
	// baseline engines) "contract".
	Phase string `json:"phase"`
	// RunsDone / RunsTotal count boost runs (1/1 for unboosted solves).
	RunsDone  int64 `json:"runs_done"`
	RunsTotal int64 `json:"runs_total"`
	// PackRoundsDone / PackRoundsTotal count greedy tree-packing rounds.
	PackRoundsDone  int64 `json:"pack_rounds_done"`
	PackRoundsTotal int64 `json:"pack_rounds_total"`
	// TreesScanned / TreesTotal count spanning-tree scans.
	TreesScanned int64 `json:"trees_scanned"`
	TreesTotal   int64 `json:"trees_total"`
	// BoughPhasesDone and BoughsProcessed count bough-phase work inside
	// the tree scans.
	BoughPhasesDone int64 `json:"bough_phases_done"`
	BoughsProcessed int64 `json:"boughs_processed"`
}

// Fraction estimates overall completion in [0, 1]. It is a display
// heuristic, not an accounting guarantee: boost runs advance it in equal
// shares, and within the runs seen so far the packing rounds are
// weighted as half the work and the tree scans as the other half. Zero
// until the solve starts (RunsTotal unset). It is not strictly monotone:
// when the packing phase rejects an estimate and re-packs, the planned
// round total grows and the fraction dips accordingly.
func (ps ProgressSnapshot) Fraction() float64 {
	if ps.RunsTotal <= 0 {
		return 0
	}
	frac := func(done, total int64) float64 {
		if total <= 0 {
			return 0
		}
		f := float64(done) / float64(total)
		if f > 1 {
			f = 1
		}
		return f
	}
	// The phase counters accumulate across runs, so their blended
	// fraction approaches 1 as runs complete; counting it as the current
	// run's share keeps boosted solves honest (run 44k of 1M reads ~4%,
	// not 100%).
	cur := 0.5*frac(ps.PackRoundsDone, ps.PackRoundsTotal) + 0.5*frac(ps.TreesScanned, ps.TreesTotal)
	if ps.PackRoundsTotal == 0 {
		// Engines without a packing phase (the contraction baselines)
		// report all progress on the coarse-step counters.
		cur = frac(ps.TreesScanned, ps.TreesTotal)
	}
	f := (float64(ps.RunsDone) + cur) / float64(ps.RunsTotal)
	if f > 1 {
		f = 1
	}
	return f
}

// Progress is a concurrency-safe live progress sink for one solve: cheap
// atomic counters the solver advances at its cooperative-cancellation
// seams. Read it with Snapshot at any time, from any goroutine, while the
// solve runs. One Progress instruments one solve at a time.
type Progress struct {
	sink    progress.Sink
	onEvent func(ProgressSnapshot)
}

// NewProgress returns a fresh sink. onEvent, if non-nil, is called after
// phase transitions and coarse milestones (boost-run, tree-scan, and
// bough-phase completions). It runs on a solver goroutine at a
// cancellation seam: it must be cheap (or hand off to its own goroutine),
// and if it blocks, the solve parks at that seam until it returns.
func NewProgress(onEvent func(ProgressSnapshot)) *Progress {
	p := &Progress{onEvent: onEvent}
	if onEvent != nil {
		p.sink.Notify = func() { onEvent(p.Snapshot()) }
	}
	return p
}

// Snapshot returns the current counters. Valid on a nil *Progress (all
// zero).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{Phase: progress.PhaseNone.String()}
	}
	s := p.sink.Snapshot()
	return ProgressSnapshot{
		Phase:           s.Phase.String(),
		RunsDone:        s.RunsDone,
		RunsTotal:       s.RunsTotal,
		PackRoundsDone:  s.PackRoundsDone,
		PackRoundsTotal: s.PackRoundsTotal,
		TreesScanned:    s.TreesDone,
		TreesTotal:      s.TreesTotal,
		BoughPhasesDone: s.BoughPhasesDone,
		BoughsProcessed: s.BoughsProcessed,
	}
}

// sinkOrNil resolves the optional Progress to the internal sink.
func (p *Progress) sinkOrNil() *progress.Sink {
	if p == nil {
		return nil
	}
	return &p.sink
}

// Result of a minimum cut computation.
type Result struct {
	// Value is the cut weight. Every returned value is the exact weight
	// of some cut of the graph; with high probability it is the minimum.
	Value int64
	// InCut marks one side of the cut (nil unless WantPartition).
	InCut []bool
	// TreesScanned is the number of spanning trees searched.
	TreesScanned int
	// Work and Depth are Work-Depth model costs (zero unless CollectStats).
	Work, Depth int64
}

// MinCut computes a global minimum cut (Theorem 10). A disconnected graph
// yields Value 0. Graphs need at least two vertices.
func MinCut(G *Graph, opt Options) (Result, error) {
	return MinCutContext(context.Background(), G, opt)
}

// BoostSeed returns the seed that boost run number run (0-based) of a
// solve with Options.Seed == seed uses: run 0 keeps the seed itself and
// later runs add fixed multiples of an odd constant. It is exposed so
// callers can decompose a Boost=k solve into independent smaller solves
// that are bit-for-bit identical to the sequential Boost loop — run i of
// MinCut(Options{Seed: s, Boost: k}) equals run 0 of
// MinCut(Options{Seed: BoostSeed(s, i), Boost: 1}).
//
// The derivation is additive, so chunking composes:
// BoostSeed(BoostSeed(s, a), b) == BoostSeed(s, a+b); a solve of runs
// [a, a+c) is exactly Options{Seed: BoostSeed(s, a), Boost: c}.
func BoostSeed(seed int64, run int) int64 {
	return seed + int64(run)*0x9e3779b9
}

// MinCutContext is MinCut with cooperative cancellation. The context is
// checked between boost runs, between spanning-tree scans, and between
// bough phases inside each scan, so canceling it (or letting its deadline
// expire) stops the computation promptly instead of running to completion.
// The returned error wraps ctx.Err(), so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) identify cancellation.
func MinCutContext(ctx context.Context, G *Graph, opt Options) (Result, error) {
	if G == nil || G.g == nil {
		return Result{}, errNilGraph()
	}
	eng, err := engine.Resolve(opt.Engine, G.g.N(), G.g.M())
	if err != nil {
		return Result{}, fmt.Errorf("parcut: %w", err)
	}
	caps := eng.Caps()
	var m *wd.Meter
	if opt.CollectStats {
		m = new(wd.Meter)
	}
	pool, owned := opt.executionPool()
	if owned {
		defer pool.Close()
	}
	runs := opt.Boost
	if runs < 1 {
		runs = 1
	}
	if !caps.BoostDecomposable {
		// Extra seeded runs cannot change this engine's answer; one run is
		// the whole solve.
		runs = 1
	}
	sink := opt.Progress.sinkOrNil()
	sink.SetRuns(int64(runs))
	var out Result
	for run := 0; run < runs; run++ {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("parcut: canceled: %w", err)
		}
		runSp := opt.Trace.Child("run").AttrInt("run", int64(run)).Attr("engine", eng.Name())
		r, err := eng.Solve(ctx, G.g, engine.Options{
			Seed:          BoostSeed(opt.Seed, run),
			WantPartition: opt.WantPartition,
			Pool:          pool,
			Meter:         m,
			Progress:      sink,
			Trace:         runSp,
		})
		runSp.End()
		if err != nil {
			return Result{}, err
		}
		sink.RunDone()
		if run == 0 || r.Value < out.Value {
			out = Result{Value: r.Value, InCut: r.InCut, TreesScanned: out.TreesScanned + r.TreesScanned}
		} else {
			out.TreesScanned += r.TreesScanned
		}
	}
	if m != nil {
		out.Work, out.Depth = m.Work(), m.Depth()
	}
	return out, nil
}

// Engines lists the registered engine names in registration order; any of
// them (or "auto") is a valid Options.Engine.
func Engines() []string { return engine.Names() }

// ConstrainedMinCut finds the smallest cut that crosses at most two edges
// of the given rooted spanning tree (parent[v] is v's parent; the root has
// parent -1). This is the paper's Lemma 13 primitive; it is deterministic.
func ConstrainedMinCut(G *Graph, parent []int32, opt Options) (Result, error) {
	if G == nil || G.g == nil {
		return Result{}, errNilGraph()
	}
	var m *wd.Meter
	if opt.CollectStats {
		m = new(wd.Meter)
	}
	pool, owned := opt.executionPool()
	if owned {
		defer pool.Close()
	}
	r, err := respect.TwoRespect(G.g, parent, opt.WantPartition, pool, m)
	if err != nil {
		return Result{}, err
	}
	out := Result{Value: r.Value, InCut: r.InCut, TreesScanned: 1}
	if m != nil {
		out.Work, out.Depth = m.Work(), m.Depth()
	}
	return out, nil
}

// RandomGraph generates a connected random multigraph with n vertices, m
// edges and weights uniform in [1, maxW] (deterministic in seed) — a
// convenience for examples and experiments.
func RandomGraph(n, m int, maxW, seed int64) *Graph {
	return &Graph{g: gen.RandomConnected(n, m, maxW, seed)}
}

// errNilGraph guards the exported entry points.
func errNilGraph() error { return fmt.Errorf("parcut: nil graph") }
