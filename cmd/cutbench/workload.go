package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	parcut "repro"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// workload is one set of inputs and the way the benchmark drives the
// program with them.
type workload struct {
	name string
	// solve is the generator spec (internal/graph/gen) of the graphs the
	// operations solve; graphs of them are made per seed.
	solve  string
	graphs int
	// upload is the spec of the fresh graphs uploads carry in the service
	// mix (empty means solve).
	upload string
	// engine is requested on every solve.
	engine string
	// service drives mincutd over HTTP instead of calling parcut.
	service bool
	// probeIters sizes the speed probe (see speed.go).
	probeIters int
}

// workloads lists the benchmark's workloads. Why each exists:
//
//   - sparse: auto routes it to andersonblelloch; the 2-respecting scan and
//     packing share the solve, so it shows changes to abscan, packing, par
//     and witness extraction.
//   - ring: a cycle, so every packed tree is one heavy path; packing-heavy,
//     and the case for in-path depth work.
//   - dense: auto routes it to stoerwagner, skipping packing and scan, so
//     changes to those layers should leave it flat.
//   - service: mincutd under a closed-loop client mixing uploads, cold
//     solves and result-cache hits, so a gain on one path that costs
//     another shows.
//
// Smoke mode shrinks every graph and the speed probe and pins the engine
// auto picks at full size, so the same pipeline and replay code runs in a
// few milliseconds.
func workloads(smoke bool) []workload {
	if smoke {
		const probe = probeIters / 100
		return []workload{
			{name: "sparse", solve: "random:n=40,m=80,w=100", graphs: 2, engine: "andersonblelloch", probeIters: probe},
			{name: "ring", solve: "cycle:n=64,w=50", graphs: 2, engine: "andersonblelloch", probeIters: probe},
			{name: "dense", solve: "random:n=24,m=72,w=100", graphs: 2, engine: "stoerwagner", probeIters: probe},
			{name: "service", solve: "random:n=40,m=80,w=100", upload: "random:n=100,m=400,w=100", graphs: 2, engine: "andersonblelloch", service: true, probeIters: probe},
		}
	}
	return []workload{
		{name: "sparse", solve: "random:n=520,m=1040,w=100", graphs: 16, engine: engine.Auto, probeIters: probeIters},
		{name: "ring", solve: "cycle:n=1024,w=50", graphs: 16, engine: engine.Auto, probeIters: probeIters},
		{name: "dense", solve: "random:n=256,m=8192,w=100", graphs: 16, engine: engine.Auto, probeIters: probeIters},
		{name: "service", solve: "random:n=520,m=1040,w=100", upload: "random:n=2000,m=8000,w=100", graphs: 16, engine: engine.Auto, service: true, probeIters: probeIters},
	}
}

func findWorkload(name string, smoke bool) (workload, error) {
	var names []string
	for _, w := range workloads(smoke) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w workload) uploadSpec() string {
	if w.upload == "" {
		return w.solve
	}
	return w.upload
}

// Every seed a run uses derives from the -seed value, so the same seed
// gives the same graphs and operation sequence. The offsets keep graph,
// operation and client seeds distinct even after math/rand reduces them
// modulo 2³¹−1.
func graphSeed(seed int64, j int) int64 { return seed*1_000_003 + int64(j) }

func opSeed(seed int64, i int) int64 { return graphSeed(seed, 1<<20+i) }

// clientSeed seeds the service client's operation draws; its i-th
// operation, if a cold solve, uses solver seed clientSeed + i.
func clientSeed(seed int64) int64 { return graphSeed(seed, 1<<24) }

// op is one solve of the closed loop: graph index and solver seed.
type op struct {
	graph int
	seed  int64
}

func (w workload) op(seed int64, i int) op { return op{graph: i % w.graphs, seed: opSeed(seed, i)} }

// warmSeed is the seed of the untimed warm-up solve.
func warmSeed(seed int64) int64 { return opSeed(seed, -1) }

// input is one generated graph: the bytes the program is given and the
// benchmark's own parsed copy with its reference minimum cut.
type input struct {
	text []byte
	g    *graph.Graph
	ref  int64
}

// genGraph generates one graph of spec and serializes it.
func genGraph(spec string, seed int64) (input, error) {
	g, planted, err := gen.FromSpec(spec, seed)
	if err != nil {
		return input{}, err
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		return input{}, err
	}
	in := input{text: buf.Bytes(), g: g, ref: -1}
	if planted != nil {
		in.ref = planted.CutValue
	}
	return in, nil
}

// uploadGraph generates the graph the service mix's uploads are made
// from.
func uploadGraph(w workload, seed int64) (input, error) {
	return genGraph(w.uploadSpec(), graphSeed(seed, w.graphs))
}

// makeInputs generates the workload's solve graphs and their reference
// values: the planted value where the generator knows it, else a direct
// Stoer–Wagner call. Where auto resolves to stoerwagner itself, graph 0's
// reference is cross-checked once against andersonblelloch.
func makeInputs(w workload, seed int64) ([]input, error) {
	ins := make([]input, w.graphs)
	for j := range ins {
		in, err := genGraph(w.solve, graphSeed(seed, j))
		if err != nil {
			return nil, err
		}
		ins[j] = in
	}
	err := forEach(len(ins), func(j int) error {
		if ins[j].ref >= 0 {
			return nil
		}
		v, _, err := baseline.StoerWagner(ins[j].g)
		ins[j].ref = v
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if resolve(w, ins[0].g) == "stoerwagner" {
		pg, err := parcut.ReadGraph(bytes.NewReader(ins[0].text))
		if err != nil {
			return nil, err
		}
		res, err := parcut.MinCut(pg, parcut.Options{Engine: "andersonblelloch", Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("cross-check: %w", err)
		}
		if res.Value != ins[0].ref {
			return nil, fmt.Errorf("cross-check: stoerwagner says %d, andersonblelloch %d", ins[0].ref, res.Value)
		}
	}
	return ins, nil
}

// resolve names the engine the workload's engine request runs on g.
func resolve(w workload, g *graph.Graph) string {
	if e, err := engine.Resolve(w.engine, g.N(), g.M()); err == nil {
		return e.Name()
	}
	return w.engine
}

// forEach runs f(0..n-1) on at most GOMAXPROCS goroutines and returns the
// first error.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
			<-sem
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkAnswer judges one returned cut against its input's reference. It
// returns false for a counted failure — a value above the reference (a
// Monte Carlo miss) or a partition whose weight is not the value — and an
// error for a value below the reference, which only a bug can produce.
func checkAnswer(in input, value int64, inCut []bool) (bool, error) {
	if value < in.ref {
		return false, fmt.Errorf("returned cut %d is below the minimum %d", value, in.ref)
	}
	if value > in.ref || len(inCut) != in.g.N() {
		return false, nil
	}
	return in.g.CutValue(inCut) == value, nil
}

// solverSetup is what a solver workload sets up before it is timed.
type solverSetup struct {
	graphs []*parcut.Graph
	ex     *parcut.Executor
}

// setupSolver loads the graphs through parcut.ReadGraph, starts a
// full-width executor and runs one untimed warm-up solve.
func setupSolver(w workload, seed int64, ins []input) (*solverSetup, error) {
	s := &solverSetup{ex: parcut.NewExecutor(0)}
	for _, in := range ins {
		g, err := parcut.ReadGraph(bytes.NewReader(in.text))
		if err != nil {
			s.ex.Close()
			return nil, err
		}
		s.graphs = append(s.graphs, g)
	}
	if _, err := parcut.MinCut(s.graphs[0], s.options(w, warmSeed(seed))); err != nil {
		s.ex.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *solverSetup) options(w workload, seed int64) parcut.Options {
	return parcut.Options{Engine: w.engine, Seed: seed, WantPartition: true, Executor: s.ex}
}

// solve is one operation: the program's own solve, as a user calls it.
func (s *solverSetup) solve(w workload, o op) (parcut.Result, error) {
	return parcut.MinCut(s.graphs[o.graph], s.options(w, o.seed))
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 9

// minOps is the fewest operations a timed run makes, so that its p90 has
// at least minBeyond samples beyond it.
const minOps = 100

// runSolver is the untimed-setup, timed closed loop of a solver workload:
// one caller issues parcut.MinCut on a full-width executor and waits for
// each answer before the next, for at least dur and minOps operations.
// Each operation and set-up is timed right after a speed probe and scaled
// by it (see speed.go).
func runSolver(w workload, seed int64, dur time.Duration, ins []input) (result, error) {
	var setups []float64
	var s *solverSetup
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			s.ex.Close()
		}
		scale := w.speedScale()
		start := time.Now()
		var err error
		if s, err = setupSolver(w, seed, ins); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds()*scale)
	}
	defer s.ex.Close()
	// Peak RSS covers the timed loop only: not the reference answers or
	// the set-ups before it.
	debug.FreeOSMemory()
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return result{}, err
	}

	type answer struct {
		op    op
		value int64
		inCut []bool
		err   error
	}
	var answers []answer
	var lats []float64
	var busy float64 // scaled seconds spent in operations
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < dur; i++ {
		o := w.op(seed, i)
		scale := w.speedScale()
		t0 := time.Now()
		res, err := s.solve(w, o)
		d := time.Since(t0).Seconds() * scale
		lats = append(lats, 1000*d)
		busy += d
		answers = append(answers, answer{op: o, value: res.Value, inCut: res.InCut, err: err})
	}

	failed := 0
	for _, a := range answers {
		ok := a.err == nil
		if ok {
			var err error
			if ok, err = checkAnswer(ins[a.op.graph], a.value, a.inCut); err != nil {
				return result{}, fmt.Errorf("graph %d seed %d: %w", a.op.graph, a.op.seed, err)
			}
		}
		if !ok {
			failed++
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return result{}, err
	}
	return endToEnd(lats, busy, median(setups), rss, failed)
}

// endToEnd assembles the end-to-end metrics of a timed run from its
// scaled latencies (ms), its scaled timed wall time (s, without the speed
// probes), the scaled set-up time and the peak RSS.
func endToEnd(lats []float64, wall, setup, rss float64, failed int) (result, error) {
	p50, err := percentile(lats, 50)
	if err != nil {
		return result{}, err
	}
	p90, err := percentile(lats, 90)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   failed == 0,
		Attempted: len(lats),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {setup, "s"},
			"latency_ms_p50":   {p50, "ms"},
			"latency_ms_p90":   {p90, "ms"},
			"throughput_ops_s": {float64(len(lats)) / wall, "1/s"},
			"peak_rss_mb":      {rss, "MB"},
		},
	}, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS sets a process's resident-set high-water mark to its
// current resident set, so that a later peakRSSMB covers only what ran in
// between.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
