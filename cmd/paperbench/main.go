// Command paperbench regenerates the paper's quantitative artifacts: the
// Table 1 work/depth comparison and the per-lemma complexity and quality
// claims, one experiment per -exp name below (each experiment function's
// comment gives its E-number and the claim it measures). Output is
// markdown tables.
//
// Usage:
//
//	paperbench -exp table1|depth|minpath|decomp|tworespect|packing|cache|agree|ablation|engines|all [-quick]
//	paperbench -exp hotpath [-hotpath-reps N] [-hotpath-out f.json] [-perf-baseline BENCH_baseline.json] [-perf-tolerance 0.10]
//
// hotpath benchmarks the solver's inner-loop primitives and doubles as
// the CI perf gate (scripts/perfgate.sh); it is not part of "all".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	parcut "repro"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/graph/gen"
	"repro/internal/listrank"
	"repro/internal/minpath"
	"repro/internal/minprefix"
	"repro/internal/par"
	"repro/internal/respect"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

var (
	quick      = flag.Bool("quick", false, "smaller grids (sanity runs)")
	scalingOut = flag.String("scaling-out", "", "write the scaling experiment's per-width timings as JSON to this file")
	enginesOut = flag.String("engines-out", "", "write the engines experiment's per-cell timings and crossovers as JSON to this file")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	exp := flag.String("exp", "all", "experiment id or 'all'")
	flag.Parse()
	experiments := map[string]func(){
		"table1":     expTable1,
		"depth":      expDepth,
		"minpath":    expMinPath,
		"decomp":     expDecomp,
		"tworespect": expTwoRespect,
		"packing":    expPacking,
		"cache":      expCache,
		"agree":      expAgree,
		"ablation":   expAblation,
		"scaling":    expScaling,
		"engines":    expEngines,
		"hotpath":    expHotpath,
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "depth", "minpath", "decomp", "tworespect", "packing", "cache", "agree", "ablation", "scaling", "engines"} {
			experiments[name]()
		}
		return
	}
	f, ok := experiments[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	f()
}

func header(title string) {
	fmt.Printf("\n## %s\n\n", title)
}

func lg(n int) float64 { return math.Log2(float64(n)) }

// expTable1 — E1: the Table 1 work comparison. Ours is measured in model
// work and wall time; Karger–Stein (one recursion, Θ(n² log n) work) and
// Stoer–Wagner in wall time. The Stoer–Wagner column times the Θ(n³)
// array form, not the O(nm + n² log n) heap form Table 1 cites. The
// shape to reproduce: ours scales near-linearly with m, the dense
// baselines quadratically+ with n, so ours wins on sparse graphs and the
// advantage shrinks as density grows.
func expTable1() {
	header("E1 (Table 1): total work, ours vs quadratic-work baselines")
	type row struct{ n, m int }
	sparse := []row{{256, 1024}, {512, 2048}, {1024, 4096}, {2048, 8192}}
	dense := []row{{128, 2048}, {256, 8192}, {512, 32768}}
	if *quick {
		sparse = sparse[:2]
		dense = dense[:2]
	}
	fmt.Println("| family | n | m | ours ms | ours work | work/(m·lg⁴n) | KS-once ms | SW O(n³) ms |")
	fmt.Println("|--------|---|---|---------|-----------|---------------|------------|-------------|")
	run := func(family string, rows []row) {
		for _, r := range rows {
			g := gen.RandomConnected(r.n, r.m, 100, 42)
			var meter wd.Meter
			start := time.Now()
			res, err := core.MinCut(g, core.Options{Seed: 7, Meter: &meter})
			if err != nil {
				log.Fatal(err)
			}
			oursMS := time.Since(start).Seconds() * 1000
			start = time.Now()
			ksVal, _, err := baseline.KargerSteinOnce(g, 7)
			if err != nil {
				log.Fatal(err)
			}
			ksMS := time.Since(start).Seconds() * 1000
			start = time.Now()
			swVal, _, err := baseline.StoerWagner(g)
			if err != nil {
				log.Fatal(err)
			}
			swMS := time.Since(start).Seconds() * 1000
			if res.Value != swVal {
				fmt.Printf("| MISMATCH ours=%d sw=%d ks=%d |\n", res.Value, swVal, ksVal)
			}
			norm := float64(meter.Work()) / (float64(r.m) * math.Pow(lg(r.n), 4))
			fmt.Printf("| %s | %d | %d | %.0f | %d | %.3f | %.0f | %.0f |\n",
				family, r.n, r.m, oursMS, meter.Work(), norm, ksMS, swMS)
		}
	}
	run("sparse m=4n", sparse)
	run("dense m=n²/8", dense)
}

// expDepth — E2: model depth scales poly-logarithmically; wall-clock
// self-speedup from 1 to NumCPU workers.
func expDepth() {
	header("E2 (Table 1 depth column): model depth and self-speedup")
	sizes := []int{256, 512, 1024, 2048}
	if *quick {
		sizes = sizes[:2]
	}
	fmt.Println("| n | m | model depth | depth/lg³n | work/depth (avg parallelism) |")
	fmt.Println("|---|---|-------------|------------|------------------------------|")
	for _, n := range sizes {
		g := gen.RandomConnected(n, 4*n, 100, 42)
		var meter wd.Meter
		if _, err := core.MinCut(g, core.Options{Seed: 7, Meter: &meter}); err != nil {
			log.Fatal(err)
		}
		d := float64(meter.Depth())
		fmt.Printf("| %d | %d | %d | %.2f | %.0f |\n",
			n, 4*n, meter.Depth(), d/math.Pow(lg(n), 3), float64(meter.Work())/d)
	}
	// Self-speedup at the largest size.
	n := sizes[len(sizes)-1]
	g := gen.RandomConnected(n, 4*n, 100, 42)
	timeAt := func(p int) float64 {
		pool := par.NewPool(p)
		defer pool.Close()
		start := time.Now()
		if _, err := core.MinCut(g, core.Options{Seed: 7, Pool: pool}); err != nil {
			log.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	t1 := timeAt(1)
	tp := timeAt(runtime.NumCPU())
	fmt.Printf("\nself-speedup (full MinCut) at n=%d, m=%d: T(1)=%.2fs, T(%d)=%.2fs, speedup %.2fx\n",
		n, 4*n, t1, runtime.NumCPU(), tp, t1/tp)
	// The Minimum Path batch in isolation (the paper's §3 contribution).
	tn := 1 << 16
	parent := randomTreeParent(tn, 21)
	tr, err := tree.FromParent(parent, nil)
	if err != nil {
		log.Fatal(err)
	}
	s := minpath.New(tr, nil, nil)
	w0 := make([]int64, tn)
	ops := randomPathOps(tn, 4*tn, 23)
	batchAt := func(p int) float64 {
		pool := par.NewPool(p)
		defer pool.Close()
		start := time.Now()
		for r := 0; r < 3; r++ {
			s.RunBatch(w0, ops, pool, nil)
		}
		return time.Since(start).Seconds() / 3
	}
	b1 := batchAt(1)
	bp := batchAt(runtime.NumCPU())
	fmt.Printf("self-speedup (MinPath batch, n=%d, k=%d): T(1)=%.0fms, T(%d)=%.0fms, speedup %.2fx\n",
		tn, 4*tn, b1*1000, runtime.NumCPU(), bp*1000, b1/bp)
}

// expMinPath — E3: per-operation cost of the batched Minimum Path
// structure as the batch grows (Lemma 9: O(log n (log n + log k)) work/op),
// and each batch's model depth next to Lemma 9's depth bound.
func expMinPath() {
	header("E3 (Lemma 9): Minimum Path batch, per-op cost and depth")
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if *quick {
		sizes = sizes[:2]
	}
	fmt.Println("| tree n | batch k | ms | ns/op | model work/op | lg n·(lg n+lg k) | model depth | ⌈lg n⌉(⌈lg n⌉+⌈lg k⌉) |")
	fmt.Println("|--------|---------|----|-------|----------------|-------------------|-------------|-----------------------|")
	for _, n := range sizes {
		parent := randomTreeParent(n, 11)
		tr, err := tree.FromParent(parent, nil)
		if err != nil {
			log.Fatal(err)
		}
		s := minpath.New(tr, nil, nil)
		w0 := make([]int64, n)
		for _, k := range []int{n / 2, 2 * n} {
			ops := randomPathOps(n, k, 13)
			var meter wd.Meter
			start := time.Now()
			s.RunBatch(w0, ops, nil, &meter)
			el := time.Since(start)
			fmt.Printf("| %d | %d | %.1f | %.0f | %.0f | %.0f | %d | %d |\n",
				n, k, el.Seconds()*1000, float64(el.Nanoseconds())/float64(k),
				float64(meter.Work())/float64(k), lg(n)*(lg(n)+lg(k)),
				meter.Depth(), wd.CeilLog2(n)*(wd.CeilLog2(n)+wd.CeilLog2(k)))
		}
	}
}

// expDecomp — E4: bough decomposition phase counts against the log2 bound.
func expDecomp() {
	header("E4 (Lemma 7): bough decomposition")
	fmt.Println("| tree | n | phases | bound lg n+1 | paths | ms |")
	fmt.Println("|------|---|--------|---------------|-------|----|")
	shapes := []struct {
		name   string
		parent func(n int) []int32
	}{
		{"path", pathTreeParent},
		{"random", func(n int) []int32 { return randomTreeParent(n, 3) }},
		{"binary", binaryTreeParent},
	}
	sizes := []int{1 << 10, 1 << 14, 1 << 17}
	if *quick {
		sizes = sizes[:2]
	}
	for _, sh := range shapes {
		for _, n := range sizes {
			tr, err := tree.FromParent(sh.parent(n), nil)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			d := decomp.Decompose(tr, nil, nil)
			el := time.Since(start).Seconds() * 1000
			fmt.Printf("| %s | %d | %d | %.0f | %d | %.1f |\n",
				sh.name, n, d.NumPhases, lg(n)+1, len(d.Paths), el)
		}
	}
}

// expTwoRespect — E5: the constrained search scales near-linearly in m
// (Lemma 13: O(m log³ n) work).
func expTwoRespect() {
	header("E5 (Lemma 13): 2-respecting cut search vs m")
	n := 512
	ms := []int{2048, 8192, 32768}
	if *quick {
		ms = ms[:2]
	}
	fmt.Println("| n | m | ms | model work | work/(m·lg³n) |")
	fmt.Println("|---|---|----|------------|----------------|")
	for _, mm := range ms {
		g := gen.RandomConnected(n, mm, 50, 5)
		parent := gen.SpanningTreeParent(g, 6)
		var meter wd.Meter
		start := time.Now()
		if _, err := respect.Scan(g, parent, nil, &meter); err != nil {
			log.Fatal(err)
		}
		el := time.Since(start).Seconds() * 1000
		fmt.Printf("| %d | %d | %.0f | %d | %.3f |\n",
			n, mm, el, meter.Work(), float64(meter.Work())/(float64(mm)*math.Pow(lg(n), 3)))
	}
}

// expPacking — E6: Lemma 1 quality: how often does some sampled tree
// 2-respect a known minimum cut, and how tight is the estimate.
func expPacking() {
	header("E6 (Lemma 1): tree packing quality on planted cuts")
	trials := 20
	if *quick {
		trials = 6
	}
	hit := 0
	treesTotal := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		p := gen.PlantedCut(40, 36, 4, seed)
		res, err := core.MinCut(p.G, core.Options{Seed: seed * 3})
		if err != nil {
			log.Fatal(err)
		}
		if res.Value == p.CutValue {
			hit++
		}
		treesTotal += res.TreesScanned
	}
	fmt.Printf("planted-cut recovery: %d/%d correct, avg trees scanned %.1f\n",
		hit, trials, float64(treesTotal)/float64(trials))
}

// expCache — E7: Theorem 14 cache-miss comparison across (B, M).
func expCache() {
	header("E7 (Theorem 14): ideal-cache misses, sweep vs one-by-one")
	n, k := 1<<14, 1<<14
	if *quick {
		n, k = 1<<12, 1<<12
	}
	w0 := make([]int64, n)
	ops := make([]minprefix.Op, k)
	rng := rand.New(rand.NewSource(5))
	for i := range ops {
		leaf := int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			ops[i] = minprefix.MinOp(leaf)
		} else {
			ops[i] = minprefix.AddOp(leaf, int64(rng.Intn(9)-4))
		}
	}
	fmt.Printf("list n=%d, batch k=%d\n\n", n, k)
	fmt.Println("| B | M | one-by-one misses/op | sweep misses/op | improvement |")
	fmt.Println("|---|---|----------------------|-----------------|-------------|")
	for _, geo := range [][2]int{{16, 1024}, {64, 1024}, {128, 1024}, {128, 8192}} {
		B, M := geo[0], geo[1]
		simA := cache.NewSim(B, M)
		cache.TracedOneByOne(w0, ops, simA)
		simB := cache.NewSim(B, M)
		cache.TracedSweep(w0, ops, simB)
		a := float64(simA.Misses()) / float64(k)
		b := float64(simB.Misses()) / float64(k)
		fmt.Printf("| %d | %d | %.2f | %.2f | %.1fx |\n", B, M, a, b, a/b)
	}
}

// expAgree — E8: end-to-end agreement with Stoer–Wagner across workload
// families.
func expAgree() {
	header("E8 (Theorem 10): agreement with Stoer–Wagner")
	trials := 25
	if *quick {
		trials = 8
	}
	families := []string{
		"random:n=48,m=160,w=12",
		"random:n=96,m=200,w=50",
		"planted:na=30,nb=26,k=4",
		"dumbbell:n=10,bridge=3",
		"cycle:n=40,w=30",
		"grid:rows=8,cols=9,w=9",
		"regular:n=60,d=4,w=7",
	}
	fmt.Println("| family | trials | agreements |")
	fmt.Println("|--------|--------|------------|")
	for _, spec := range families {
		agree := 0
		for seed := int64(0); seed < int64(trials); seed++ {
			g, _, err := gen.FromSpec(spec, seed)
			if err != nil {
				log.Fatal(err)
			}
			want, _, err := baseline.StoerWagner(g)
			if err != nil {
				log.Fatal(err)
			}
			res, err := core.MinCut(g, core.Options{Seed: seed * 7})
			if err != nil {
				log.Fatal(err)
			}
			if res.Value == want {
				agree++
			}
		}
		fmt.Printf("| %s | %d | %d |\n", spec, trials, agree)
	}
}

// expAblation — E9 (merge+broadcast vs binary search in the query pass)
// and E10 (list ranking engines in bough ordering).
func expAblation() {
	header("E9 (§3.2 design): query resolution, merge+broadcast vs binary search")
	n, k := 1<<15, 1<<17
	if *quick {
		n, k = 1<<12, 1<<14
	}
	w0 := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	ops := make([]minprefix.Op, k)
	for i := range ops {
		leaf := int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			ops[i] = minprefix.MinOp(leaf)
		} else {
			ops[i] = minprefix.AddOp(leaf, int64(rng.Intn(9)-4))
		}
	}
	start := time.Now()
	minprefix.RunBatch(w0, ops, nil, nil)
	tMerge := time.Since(start)
	start = time.Now()
	minprefix.RunBatchBinarySearch(w0, ops, nil, nil)
	tBS := time.Since(start)
	fmt.Printf("list n=%d, batch k=%d: merge+broadcast %.1fms, binary-search %.1fms (%.2fx)\n",
		n, k, tMerge.Seconds()*1000, tBS.Seconds()*1000,
		tBS.Seconds()/tMerge.Seconds())

	header("E10 (§3.3.1): list ranking engines on a long list")
	nn := 1 << 20
	if *quick {
		nn = 1 << 16
	}
	next := make([]int32, nn)
	for i := 0; i < nn-1; i++ {
		next[i] = int32(i + 1)
	}
	next[nn-1] = listrank.Nil
	start = time.Now()
	listrank.Rank(next, nil, nil)
	tJump := time.Since(start)
	start = time.Now()
	listrank.RankRandomMate(next, 5, nil, nil)
	tMate := time.Since(start)
	start = time.Now()
	listrank.RankDeterministic(next, nil, nil)
	tDet := time.Since(start)
	fmt.Printf("n=%d: pointer jumping %.1fms (O(n log n) work), random-mate %.1fms (O(n) work, Las Vegas), 3-coloring %.1fms (O(n log* n)-ish work, deterministic)\n",
		nn, tJump.Seconds()*1000, tMate.Seconds()*1000, tDet.Seconds()*1000)

	header("E11 (§4.3 schedule): sequential vs concurrent phase execution")
	gn := 1024
	if *quick {
		gn = 256
	}
	g := gen.RandomConnected(gn, 4*gn, 50, 8)
	parent := gen.SpanningTreeParent(g, 9)
	var mSeq, mPar wd.Meter
	start = time.Now()
	if _, err := respect.Scan(g, parent, nil, &mSeq); err != nil {
		log.Fatal(err)
	}
	tSeq := time.Since(start)
	start = time.Now()
	if _, err := respect.ScanParallelPhases(g, parent, nil, &mPar); err != nil {
		log.Fatal(err)
	}
	tPar := time.Since(start)
	fmt.Printf("n=%d m=%d: sequential phases %0.fms (model depth %d), concurrent phases %0.fms (model depth %d, %.1fx shallower)\n",
		gn, 4*gn, tSeq.Seconds()*1000, mSeq.Depth(), tPar.Seconds()*1000, mPar.Depth(),
		float64(mSeq.Depth())/float64(mPar.Depth()))
}

// expScaling — E12: wall-clock scaling of the full solver against the
// executor width, driven through the public Options.Executor (the
// algorithm's own parallelism, not the Go runtime's): each width runs on a
// dedicated executor of exactly that many lanes, with GOMAXPROCS untouched.
// The per-width results must be identical — the experiment double-checks
// the solver's width-determinism invariant while it measures.
func expScaling() {
	header("E12 (scaling): full solver wall clock vs executor width")
	n := 2048
	reps := 3
	if *quick {
		n, reps = 512, 1
	}
	m := 4 * n
	const seed = 7
	g := parcut.RandomGraph(n, m, 100, 42)

	widths := []int{1}
	for w := 2; w < runtime.NumCPU(); w *= 2 {
		widths = append(widths, w)
	}
	if last := widths[len(widths)-1]; last != runtime.NumCPU() {
		widths = append(widths, runtime.NumCPU())
	}

	type widthRow struct {
		Width   int     `json:"width"`
		Millis  float64 `json:"ms"`
		Speedup float64 `json:"speedup"`
		Value   int64   `json:"value"`
		// PackingMs and ScanMs attribute the best rep's wall clock to the
		// solver's phases, read off the run's trace spans — the same spans
		// mincutd serves on /v1/traces.
		PackingMs float64 `json:"packing_ms"`
		ScanMs    float64 `json:"scan_ms"`
		// AllocsPerSolve is the heap-allocation count of the last
		// (warmest) rep: the arena recycling means it should be far
		// below the first rep's and roughly width-independent.
		AllocsPerSolve uint64 `json:"allocs_per_solve"`
		// Forks and Steals are the executor's scheduling counters
		// summed over all reps at this width (zero at width 1, where the
		// pool runs inline).
		Forks  int64 `json:"forks"`
		Steals int64 `json:"steals"`
	}
	rows := make([]widthRow, 0, len(widths))
	fmt.Println("| width | ms | speedup vs width 1 | packing ms | scan ms | allocs/solve | forks | steals | value |")
	fmt.Println("|-------|----|--------------------|------------|---------|--------------|-------|--------|-------|")
	var baseMS float64
	var refValue int64
	for i, w := range widths {
		exec := parcut.NewExecutor(w)
		best := math.Inf(1)
		var res parcut.Result
		var packMS, scanMS float64
		var allocs uint64
		for r := 0; r < reps; r++ {
			var published *trace.Trace
			rec := trace.NewRecorder("bench", 0, func(tr *trace.Trace) { published = tr })
			opt := parcut.Options{Seed: seed, Executor: exec, Trace: rec.Start("solve")}
			var msBefore runtime.MemStats
			runtime.ReadMemStats(&msBefore)
			start := time.Now()
			got, err := parcut.MinCut(g, opt)
			if err != nil {
				log.Fatal(err)
			}
			el := time.Since(start).Seconds() * 1000
			var msAfter runtime.MemStats
			runtime.ReadMemStats(&msAfter)
			allocs = msAfter.Mallocs - msBefore.Mallocs // keep the last (warmest) rep
			opt.Trace.End()
			rec.Release()
			if el < best {
				best = el
				packMS = phaseMillis(published, "packing")
				scanMS = phaseMillis(published, "scan")
			}
			res = got
		}
		st := exec.Stats()
		exec.Close()
		if i == 0 {
			baseMS = best
			refValue = res.Value
		} else if res.Value != refValue {
			log.Fatalf("scaling: width %d produced value %d, width 1 produced %d (determinism violated)", w, res.Value, refValue)
		}
		rows = append(rows, widthRow{Width: w, Millis: best, Speedup: baseMS / best, Value: res.Value,
			PackingMs: packMS, ScanMs: scanMS, AllocsPerSolve: allocs, Forks: st.Forks, Steals: st.Steals})
		fmt.Printf("| %d | %.1f | %.2fx | %.1f | %.1f | %d | %d | %d | %d |\n",
			w, best, baseMS/best, packMS, scanMS, allocs, st.Forks, st.Steals, res.Value)
	}
	if *scalingOut == "" {
		return
	}
	blob, err := json.MarshalIndent(struct {
		Experiment string     `json:"experiment"`
		N          int        `json:"n"`
		M          int        `json:"m"`
		Seed       int64      `json:"seed"`
		Reps       int        `json:"reps"`
		NumCPU     int        `json:"num_cpu"`
		Widths     []widthRow `json:"widths"`
	}{"scaling", n, m, seed, reps, runtime.NumCPU(), rows}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*scalingOut, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *scalingOut)
}

// expEngines — E13: crossover measurement behind the "auto" engine rule.
// Every engine solves the same graphs across an n × density grid (each
// engine capped at the sizes where it finishes in reasonable time), the
// exact baseline's value cross-checks the randomized engines, and the
// per-family crossover points — the largest n where Stoer–Wagner
// still beats andersonblelloch, the engine auto picks past the
// Stoer–Wagner region — are derived from the timings. The JSON
// artifact (-engines-out, BENCH_engines.json in CI) records the grid, the
// suggested thresholds, and the calibration engine.DefaultThresholds
// ships with, so drift between measurement and shipped rule is visible.
func expEngines() {
	header("E13 (engines): engine crossover by n and density")
	type cell struct {
		family string
		n, m   int
	}
	sparseNs := []int{64, 128, 256, 512, 1024, 2048}
	denseNs := []int{64, 128, 256, 512}
	// Best of 3 per cell in quick mode too: near a crossover the engines
	// sit within a few ms of each other, and one timing per cell moves it
	// from run to run.
	const reps = 3
	if *quick {
		sparseNs = []int{64, 128, 256}
		denseNs = []int{64, 128}
	}
	var cells []cell
	for _, n := range sparseNs {
		cells = append(cells, cell{"sparse", n, 4 * n})
	}
	for _, n := range denseNs {
		cells = append(cells, cell{"dense", n, n * n / 8})
	}
	// Per-engine size caps: the dense baselines' superquadratic work makes
	// the large cells pointless (and slow) for them — the crossover they
	// calibrate sits well below the cap.
	engineMaxN := map[string]int{
		"geissmann":        1 << 30,
		"andersonblelloch": 1 << 30,
		"stoerwagner":      1024,
	}
	type row struct {
		Family string  `json:"family"`
		N      int     `json:"n"`
		M      int     `json:"m"`
		Engine string  `json:"engine"`
		Millis float64 `json:"ms"`
		Value  int64   `json:"value"`
	}
	var rows []row
	fmt.Println("| family | n | m | engine | ms | value |")
	fmt.Println("|--------|---|---|--------|----|-------|")
	for _, c := range cells {
		g := gen.RandomConnected(c.n, c.m, 100, 42)
		var exactVal int64
		haveExact := false
		cellVals := map[string]int64{}
		for _, name := range engine.Names() {
			if c.n > engineMaxN[name] {
				continue
			}
			eng, ok := engine.Lookup(name)
			if !ok {
				log.Fatalf("engine %q missing from the engine table", name)
			}
			best := math.Inf(1)
			var val int64
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, err := eng.Solve(context.Background(), g, core.Options{Seed: 7})
				if err != nil {
					log.Fatal(err)
				}
				if el := time.Since(start).Seconds() * 1000; el < best {
					best = el
				}
				val = res.Value
			}
			if eng.Caps().Exact {
				exactVal, haveExact = val, true
			}
			cellVals[name] = val
			rows = append(rows, row{c.family, c.n, c.m, name, best, val})
			fmt.Printf("| %s | %d | %d | %s | %.1f | %d |\n", c.family, c.n, c.m, name, best, val)
		}
		if haveExact {
			for name, v := range cellVals {
				if v != exactVal {
					fmt.Printf("| MISMATCH %s n=%d m=%d: %s=%d exact=%d |\n", c.family, c.n, c.m, name, v, exactVal)
				}
			}
		}
	}
	// Crossover per family: the largest n where stoerwagner still beat
	// andersonblelloch (0 when it never did on the measured grid), which
	// calibrates when auto leaves the exact baseline.
	crossover := func(family string) int {
		ms := map[string]map[int]float64{}
		for _, r := range rows {
			if r.Family != family {
				continue
			}
			if ms[r.Engine] == nil {
				ms[r.Engine] = map[int]float64{}
			}
			ms[r.Engine][r.N] = r.Millis
		}
		best := 0
		for n, sw := range ms["stoerwagner"] {
			if ab, ok := ms["andersonblelloch"][n]; ok && sw <= ab && n > best {
				best = n
			}
		}
		return best
	}
	sparseX := crossover("sparse")
	denseX := crossover("dense")
	fmt.Printf("\ncrossover (largest n where stoerwagner beats andersonblelloch): sparse %d, dense %d\n", sparseX, denseX)
	fmt.Printf("shipped auto thresholds: small_n=%d dense_n=%d dense_frac=%g\n",
		engine.DefaultThresholds.SmallN, engine.DefaultThresholds.DenseN, engine.DefaultThresholds.DenseFrac)
	if *enginesOut == "" {
		return
	}
	blob, err := json.MarshalIndent(struct {
		Experiment       string  `json:"experiment"`
		Seed             int64   `json:"seed"`
		Reps             int     `json:"reps"`
		NumCPU           int     `json:"num_cpu"`
		Rows             []row   `json:"rows"`
		SparseCrossoverN int     `json:"sparse_crossover_n"`
		DenseCrossoverN  int     `json:"dense_crossover_n"`
		ShippedSmallN    int     `json:"shipped_small_n"`
		ShippedDenseN    int     `json:"shipped_dense_n"`
		ShippedDenseFrac float64 `json:"shipped_dense_frac"`
	}{"engines", 7, reps, runtime.NumCPU(), rows, sparseX, denseX,
		engine.DefaultThresholds.SmallN, engine.DefaultThresholds.DenseN, engine.DefaultThresholds.DenseFrac}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*enginesOut, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *enginesOut)
}

// --- helpers ---

// phaseMillis sums the durations of a trace's spans with the given name
// (one "packing" and one "scan" span per boost run).
func phaseMillis(tr *trace.Trace, name string) float64 {
	if tr == nil {
		return 0
	}
	var ns int64
	for _, sp := range tr.Spans {
		if sp.Name == name {
			ns += sp.Duration
		}
	}
	return float64(ns) / 1e6
}

func randomTreeParent(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	parent := make([]int32, n)
	parent[perm[0]] = tree.None
	for i := 1; i < n; i++ {
		parent[perm[i]] = int32(perm[rng.Intn(i)])
	}
	return parent
}

func pathTreeParent(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32(i - 1)
	}
	return parent
}

func binaryTreeParent(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = tree.None
	for i := 1; i < n; i++ {
		parent[i] = int32((i - 1) / 2)
	}
	return parent
}

func randomPathOps(n, k int, seed int64) []minpath.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]minpath.Op, k)
	for i := range ops {
		v := int32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			ops[i] = minpath.MinOp(v)
		} else {
			ops[i] = minpath.AddOp(v, int64(rng.Intn(21)-10))
		}
	}
	return ops
}
