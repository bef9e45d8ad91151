package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abscan"
	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/respect"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

// span is one timed call into a layer, as written to the -trace-out file.
type span struct {
	Op     int     `json:"op"` // replayed operation; -1 for comparators
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// recorder keeps the spans of a traced run in memory.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span times f as one span under parent and returns its duration. f gets
// the span's ID to parent its own calls.
func (r *recorder) span(op int, parent int64, name string, f func(id int64)) time.Duration {
	id := r.next.Add(1)
	start := time.Since(r.t0)
	f(id)
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: micros(start), End: micros(end)})
	r.mu.Unlock()
	return end - start
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerTimes sums, per span name and operation, the spans' self times
// (duration minus the part of it that child spans cover) and their
// durations, in ms; each name maps to one value per operation it occurs in.
func (r *recorder) layerTimes() (self, dur map[string][]float64) {
	kids := map[int64][]span{}
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	type key struct {
		op   int
		name string
	}
	var keys []key
	selfSum, durSum := map[key]float64{}, map[key]float64{}
	for _, s := range r.spans {
		k := key{s.Op, s.Name}
		if _, ok := durSum[k]; !ok {
			keys = append(keys, k)
		}
		d := s.End - s.Start
		durSum[k] += d / 1000
		selfSum[k] += (d - covered(s, kids[s.ID])) / 1000
	}
	self, dur = map[string][]float64{}, map[string][]float64{}
	for _, k := range keys {
		self[k.name] = append(self[k.name], selfSum[k])
		dur[k.name] = append(dur[k.name], durSum[k])
	}
	return self, dur
}

// covered is the length of the union of the children's intervals within
// s.
func covered(s span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		if lo, hi := max(c.Start, s.Start), min(c.End, s.End); hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end float64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts are the counters one replayed andersonblelloch solve reads
// from its layers.
type layerCounts struct {
	rounds, guesses, skeleton, trees, packWork float64
	heavyPaths, scanWork, scanDepth            float64
}

// abReplay is one andersonblelloch solve replayed through its layers.
type abReplay struct {
	value   int64
	parents [][]int32
	finds   []abscan.Finding
	counts  layerCounts
}

// replayAB replays engine andersonblelloch's pipeline (see
// internal/engine) through the layers' public functions, one span per
// call under parent: connectivity, tree packing, then per tree, forked as
// the engine forks them, rooting and the 2-respecting scan, then witness
// extraction. The best tree's witness is extracted even when the
// min-degree cut wins and the engine skips it, so every operation times
// that layer.
func replayAB(ctx context.Context, rec *recorder, op int, parent int64, g *graph.Graph, seed int64, pool *par.Pool) (abReplay, error) {
	n := g.N()
	var comps int
	rec.span(op, parent, "mst.connect", func(int64) { _, _, comps = mst.ForestWithLabels(n, g.Edges(), nil, pool, nil) })
	if comps > 1 {
		return abReplay{}, fmt.Errorf("replay: graph is disconnected")
	}
	deg := g.WeightedDegrees()
	minDeg, _ := pool.MinInt64(deg)
	var sink progress.Sink
	var pm wd.Meter
	var pk *packing.Result
	var err error
	rec.span(op, parent, "packing", func(int64) {
		pk, err = packing.SampleTreesContext(ctx, g, packing.Options{Seed: seed + 1}, pool, &pm, &sink, trace.SpanRef{})
	})
	if err != nil {
		return abReplay{}, err
	}
	trees := len(pk.Trees)
	if trees == 0 {
		return abReplay{}, fmt.Errorf("replay: packing sampled no trees")
	}
	adj := g.BuildAdjOn(pool)
	r := abReplay{parents: make([][]int32, trees), finds: make([]abscan.Finding, trees)}
	errs := make([]error, trees)
	meters := make([]*wd.Meter, trees)
	rec.span(op, parent, "abscan.scan_wall", func(id int64) {
		pool.ForGrain(trees, 1, func(i int) {
			edges := make([][2]int32, len(pk.Trees[i]))
			for j, ei := range pk.Trees[i] {
				e := g.Edge(int(ei))
				edges[j] = [2]int32{e.U, e.V}
			}
			rec.span(op, id, "tree.root", func(int64) { r.parents[i], errs[i] = tree.RootEdgeList(n, edges, 0, pool, nil) })
			if errs[i] != nil {
				return
			}
			meters[i] = new(wd.Meter)
			rec.span(op, id, "abscan.scan", func(int64) {
				r.finds[i], errs[i] = abscan.Scan(ctx, g, adj, deg, r.parents[i], false, pool, meters[i], &sink, trace.SpanRef{})
			})
		})
	})
	best := 0
	for i, err := range errs {
		if err != nil {
			return abReplay{}, fmt.Errorf("replay: tree %d: %w", i, err)
		}
		if r.finds[i].Value < r.finds[best].Value {
			best = i
		}
	}
	rec.span(op, parent, "abscan.witness", func(int64) { _, err = abscan.Witness(g, r.parents[best], r.finds[best], pool, nil) })
	if err != nil {
		return abReplay{}, err
	}
	r.value = min(minDeg, r.finds[best].Value)
	var sm wd.Meter
	sm.Par(meters...)
	snap := sink.Snapshot()
	r.counts = layerCounts{
		rounds: float64(snap.PackRoundsDone), guesses: float64(pk.Packings),
		skeleton: float64(pk.SkeletonCopies), trees: float64(trees), packWork: float64(pm.Work()),
		heavyPaths: float64(snap.BoughsProcessed), scanWork: float64(sm.Work()), scanDepth: float64(sm.Depth()),
	}
	return r, nil
}

// replaySW replays engine stoerwagner: one Stoer–Wagner call.
func replaySW(ctx context.Context, rec *recorder, op int, parent int64, g *graph.Graph, pool *par.Pool) (int64, error) {
	var v int64
	var err error
	rec.span(op, parent, "baseline.stoerwagner", func(int64) { v, _, err = baseline.StoerWagnerContext(ctx, g, pool, nil, trace.SpanRef{}) })
	return v, err
}

// compareRespect scans r's rooted trees with the geissmann scan
// (internal/respect), one span per tree, and requires abscan's value on
// every tree.
func compareRespect(rec *recorder, parent int64, g *graph.Graph, r abReplay, pool *par.Pool) error {
	for i, p := range r.parents {
		var f respect.Finding
		var err error
		rec.span(-1, parent, "respect.scan", func(int64) { f, err = respect.Scan(g, p, pool, nil) })
		if err != nil {
			return err
		}
		if f.Value != r.finds[i].Value {
			return fmt.Errorf("tree %d: respect finds %d, abscan %d", i, f.Value, r.finds[i].Value)
		}
	}
	return nil
}

// runTraced is the per-layer run. For about 60% of dur it solves the
// timed run's operations with parcut.MinCut (reading executor and GC
// counters around each call) and replays each through the resolved
// engine's layers, which must return the same value. The layers the
// resolved engine skips are timed once, on the first operation's graph,
// as comparators. For the rest of dur it drives the service mix against
// mincutd with the workload's graphs and reads per-route client timings
// and the /metrics difference.
func runTraced(w workload, seed int64, dur time.Duration, ins []input, bin, workdir, traceOut string) (result, error) {
	ctx := context.Background()
	rec := &recorder{t0: time.Now()}
	pool := par.NewPool(0)
	defer pool.Close()
	s, err := setupSolver(w, seed, ins)
	if err != nil {
		return result{}, err
	}
	defer s.ex.Close()
	resolved := resolve(w, ins[0].g)
	if resolved != "andersonblelloch" && resolved != "stoerwagner" {
		return result{}, fmt.Errorf("cannot replay engine %q", resolved)
	}
	runtime.GC()

	var plain []float64
	var layer []layerCounts
	var steals, misses, inline, allocs, gcs float64
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < dur*6/10; i++ {
		o := w.op(seed, i)
		in := ins[o.graph]
		var m0, m1 runtime.MemStats
		ps0 := s.ex.Stats()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := s.solve(w, o)
		plain = append(plain, millis(time.Since(t0)))
		runtime.ReadMemStats(&m1)
		ps1 := s.ex.Stats()
		steals += float64(ps1.Steals - ps0.Steals)
		misses += float64(ps1.ArenaMisses - ps0.ArenaMisses)
		inline += float64(ps1.InlineRuns - ps0.InlineRuns)
		allocs += float64(m1.TotalAlloc - m0.TotalAlloc)
		gcs += float64(m1.NumGC - m0.NumGC)
		attempted++
		if err != nil {
			failed++
			continue
		}
		if ok, err := checkAnswer(in, res.Value, res.InCut); err != nil {
			return result{}, fmt.Errorf("graph %d seed %d: %w", o.graph, o.seed, err)
		} else if !ok {
			failed++
		}

		var replayed int64
		var ab abReplay
		rec.span(i, 0, "op", func(id int64) {
			if resolved == "stoerwagner" {
				replayed, err = replaySW(ctx, rec, i, id, in.g, pool)
				return
			}
			ab, err = replayAB(ctx, rec, i, id, in.g, o.seed, pool)
			replayed = ab.value
		})
		if err != nil {
			return result{}, fmt.Errorf("replay of graph %d seed %d: %w", o.graph, o.seed, err)
		}
		if replayed != res.Value {
			return result{}, fmt.Errorf("replay of graph %d seed %d returned %d, MinCut %d", o.graph, o.seed, replayed, res.Value)
		}
		if resolved == "andersonblelloch" {
			layer = append(layer, ab.counts)
		}
		if i == 0 {
			c, err := comparators(ctx, rec, resolved, in, o.seed, ab, pool)
			if err != nil {
				return result{}, fmt.Errorf("comparator on graph %d: %w", o.graph, err)
			}
			layer = append(layer, c...)
		}
	}
	ops := float64(len(plain))

	up, err := uploadGraph(w, seed)
	if err != nil {
		return result{}, err
	}
	srv, err := startServer(bin, workdir)
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	ids, warm, err := preload(c, w, seed, ins)
	if err != nil {
		return result{}, err
	}
	before, err := c.metrics()
	if err != nil {
		return result{}, err
	}
	mix, _ := runMix(c, w, seed, ids, warm, up, dur*4/10)
	after, err := c.metrics()
	if err != nil {
		return result{}, err
	}
	mixFailed, err := checkMix(mix, ins)
	if err != nil {
		return result{}, err
	}
	byKind := map[string][]float64{}
	for _, o := range mix {
		byKind[o.kind] = append(byKind[o.kind], o.lat)
	}
	route := map[string]float64{}
	for kind, lats := range byKind {
		if route[kind], err = percentile(lats, 50); err != nil {
			return result{}, fmt.Errorf("%s: %w", kind, err)
		}
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	deltaSum := func(prefix string) float64 {
		var d float64
		for k, v := range after {
			if strings.HasPrefix(k, prefix) {
				d += v - before[k]
			}
		}
		return d
	}

	self, wall := rec.layerTimes()
	mean := func(f func(layerCounts) float64) float64 {
		var sum float64
		for _, c := range layer {
			sum += f(c)
		}
		return sum / float64(max(len(layer), 1))
	}
	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }
	if err := rec.write(traceOut); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	failed += mixFailed
	return result{
		Correct:   failed == 0,
		Attempted: attempted + len(mix),
		Failed:    failed,
		Metrics: map[string]metric{
			"packing.ms":               ms(median(self["packing"])),
			"packing.rounds":           count(mean(func(c layerCounts) float64 { return c.rounds })),
			"packing.guesses":          count(mean(func(c layerCounts) float64 { return c.guesses })),
			"packing.skeleton_copies":  count(mean(func(c layerCounts) float64 { return c.skeleton })),
			"packing.trees":            count(mean(func(c layerCounts) float64 { return c.trees })),
			"packing.work":             count(mean(func(c layerCounts) float64 { return c.packWork })),
			"abscan.scan_wall_ms":      ms(median(wall["abscan.scan_wall"])),
			"abscan.scan_busy_ms":      ms(median(self["abscan.scan"])),
			"abscan.heavy_paths":       count(mean(func(c layerCounts) float64 { return c.heavyPaths })),
			"abscan.work":              count(mean(func(c layerCounts) float64 { return c.scanWork })),
			"abscan.depth":             count(mean(func(c layerCounts) float64 { return c.scanDepth })),
			"tree.root_ms":             ms(median(self["tree.root"])),
			"mst.connect_ms":           ms(median(self["mst.connect"])),
			"abscan.witness_ms":        ms(median(self["abscan.witness"])),
			"baseline.stoerwagner_ms":  ms(median(self["baseline.stoerwagner"])),
			"respect.scan_busy_ms":     ms(median(self["respect.scan"])),
			"par.steals_per_op":        count(steals / ops),
			"par.arena_misses_per_op":  count(misses / ops),
			"par.inline_runs":          count(inline),
			"gc.alloc_mb_per_op":       {allocs / ops / 1e6, "MB"},
			"gc.cycles_per_op":         count(gcs / ops),
			"httpapi.resolve_ms_p50":   ms(route[kindResolve]),
			"httpapi.solve_ms_p50":     ms(route[kindSolve]),
			"httpapi.upload_ms_p50":    ms(route[kindUpload]),
			"sched.cache_hit_ratio":    {ratio(delta("mincutd_cache_hits_total"), delta("mincutd_jobs_submitted_total")), "ratio"},
			"sched.run_ms_mean":        ms(1000 * ratio(delta("mincutd_solve_seconds_sum"), delta("mincutd_solve_seconds_count"))),
			"sched.queue_wait_ms_mean": ms(1000 * ratio(deltaSum("mincutd_queue_wait_seconds_total{"), delta("mincutd_jobs_dispatched_total"))),
			"store.fsyncs_per_upload":  count(ratio(delta("mincutd_store_fsyncs_total"), float64(len(byKind[kindUpload])))),
			"bench.trace_overhead_pct": {100 * (median(wall["op"])/median(plain) - 1), "%"},
		},
	}, nil
}

// comparators times the layers the resolved engine skips, on one
// operation's graph: for andersonblelloch, Stoer–Wagner and the geissmann
// scan of that operation's trees; for stoerwagner, the whole
// andersonblelloch pipeline and the geissmann scan of its trees. Every
// comparator must agree with the reference.
func comparators(ctx context.Context, rec *recorder, resolved string, in input, seed int64, first abReplay, pool *par.Pool) ([]layerCounts, error) {
	var counts []layerCounts
	var err error
	rec.span(-1, 0, "comparator", func(id int64) {
		if resolved == "stoerwagner" {
			if first, err = replayAB(ctx, rec, -1, id, in.g, seed, pool); err != nil {
				return
			}
			counts = append(counts, first.counts)
			if first.value != in.ref {
				err = fmt.Errorf("andersonblelloch finds %d, reference %d", first.value, in.ref)
				return
			}
		} else {
			var v int64
			if v, err = replaySW(ctx, rec, -1, id, in.g, pool); err == nil && v != in.ref {
				err = fmt.Errorf("stoerwagner finds %d, reference %d", v, in.ref)
			}
			if err != nil {
				return
			}
		}
		err = compareRespect(rec, id, in.g, first, pool)
	})
	return counts, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
