package parcut

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/trace"
)

// widthsUnderTest: sequential, even, odd (misaligned chunk boundaries),
// and the machine's own parallelism.
func widthsUnderTest() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestMinCutWidthEquivalence is the determinism invariant of the pool
// refactor: identical seed and input must produce a bit-identical Result
// at every executor width, including partitions and model stats — and
// attaching live instrumentation (a progress sink with an active event
// hook plus a trace recorder) must never perturb it: both sinks are
// write-only for the solver.
func TestMinCutWidthEquivalence(t *testing.T) {
	graphs := []*Graph{
		RandomGraph(140, 560, 50, 11),
		RandomGraph(64, 1200, 9, 5),
	}
	for gi, g := range graphs {
		for _, boost := range []int{1, 3} {
			var ref Result
			for i, w := range widthsUnderTest() {
				exec := NewExecutor(w)
				for _, instrumented := range []bool{false, true} {
					opt := Options{
						Seed:          42,
						WantPartition: true,
						CollectStats:  true,
						Boost:         boost,
						Executor:      exec,
					}
					var rec *trace.Recorder
					var published *trace.Trace
					if instrumented {
						opt.Progress = NewProgress(func(ProgressSnapshot) {})
						rec = trace.NewRecorder("test", 0, func(tr *trace.Trace) { published = tr })
						opt.Trace = rec.Start("solve")
					}
					res, err := MinCut(g, opt)
					if err != nil {
						t.Fatalf("graph %d width %d instrumented=%v: %v", gi, w, instrumented, err)
					}
					if instrumented {
						opt.Trace.End()
						rec.Release()
						if published == nil || len(published.Spans) < 2 {
							t.Fatalf("graph %d width %d: trace not published or empty (%+v)", gi, w, published)
						}
					}
					if i == 0 && !instrumented {
						ref = res
						continue
					}
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("graph %d boost %d: width %d (instrumented=%v) result %+v differs from width-1 result %+v",
							gi, boost, w, instrumented, res, ref)
					}
				}
				exec.Close()
			}
		}
	}
}

// TestMinCutExecutorReuse: an Executor reused across solves returns what
// a fresh executor of the same width returns on its first solve.
func TestMinCutExecutorReuse(t *testing.T) {
	g := RandomGraph(150, 600, 30, 3)
	fresh := NewExecutor(3)
	want, err := MinCut(g, Options{Seed: 9, WantPartition: true, Executor: fresh})
	fresh.Close()
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(3)
	defer exec.Close()
	if exec.Width() != 3 {
		t.Fatalf("executor width = %d", exec.Width())
	}
	for i := 0; i < 3; i++ { // reuse across calls
		got, err := MinCut(g, Options{Seed: 9, WantPartition: true, Executor: exec})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("executor run %d: %+v != %+v", i, got, want)
		}
	}
}

// TestConstrainedMinCutWidthEquivalence covers the deterministic §4
// subproblem across widths.
func TestConstrainedMinCutWidthEquivalence(t *testing.T) {
	g := RandomGraph(120, 480, 25, 21)
	// The path tree on vertex order: a valid rooted tree over the vertex
	// set, which is all the constrained search needs to run.
	parent := make([]int32, g.N())
	parent[0] = -1
	for i := 1; i < g.N(); i++ {
		parent[i] = int32(i - 1)
	}
	var ref Result
	for i, w := range widthsUnderTest() {
		exec := NewExecutor(w)
		res, err := ConstrainedMinCut(g, parent, Options{WantPartition: true, CollectStats: true, Executor: exec})
		exec.Close()
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("width %d: %+v != %+v", w, res, ref)
		}
	}
	if got := g.CutValue(ref.InCut); got != ref.Value {
		t.Fatalf("witness value %d != reported %d", got, ref.Value)
	}
}

// TestConcurrentMinCutIndependentExecutors runs many solves at once, each
// on its own executor, under the race detector: independent pools must
// not share mutable state, and every solve must match the sequential
// reference result.
func TestConcurrentMinCutIndependentExecutors(t *testing.T) {
	g := RandomGraph(150, 600, 40, 7)
	seq := NewExecutor(1)
	want, err := MinCut(g, Options{Seed: 5, WantPartition: true, Executor: seq})
	seq.Close()
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	results := make([]Result, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			exec := NewExecutor(1 + c%3)
			defer exec.Close()
			results[c], errs[c] = MinCut(g, Options{Seed: 5, WantPartition: true, Executor: exec})
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if !reflect.DeepEqual(results[c], want) {
			t.Fatalf("caller %d diverged: %+v != %+v", c, results[c], want)
		}
	}
}

// TestPathAggregatorWidthEquivalence: the standalone Minimum Path
// structure returns identical batch results at every parallelism.
func TestPathAggregatorWidthEquivalence(t *testing.T) {
	n := 300
	parent := make([]int32, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = int32((i - 1) / 3)
	}
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64((i * 37) % 101)
	}
	var ops []PathOp
	for i := 0; i < 4*n; i++ {
		v := int32((i * 13) % n)
		if i%2 == 0 {
			ops = append(ops, AddPath(v, int64(i%19-9)))
		} else {
			ops = append(ops, MinPath(v))
		}
	}
	var ref []int64
	for i, w := range widthsUnderTest() {
		exec := NewExecutor(w)
		pa, err := NewPathAggregatorOpts(parent, weights, Options{Executor: exec})
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		got, err := pa.Run(ops)
		exec.Close()
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("width %d batch results differ", w)
		}
	}
}
