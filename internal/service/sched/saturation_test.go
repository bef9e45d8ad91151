package sched

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	parcut "repro"
)

// saturationGraph builds a solve-heavy-enough graph for load tests.
func saturationGraph(seed int64) *parcut.Graph {
	return parcut.RandomGraph(150, 600, 40, seed)
}

// TestNoOversubscription pins the goroutine budget of the shared
// executor: with W workers solving on one GOMAXPROCS-wide executor, a
// fully loaded scheduler holds the workers plus the executor's
// GOMAXPROCS − 1 persistent lanes — not the workers × GOMAXPROCS (and
// transiently far worse) fan-out of per-call spawning. The bound checked
// is structural: an executor never spawns beyond its width and a busy
// worker is its own lane, so the ceiling holds at any sampling moment.
func TestNoOversubscription(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	const workers = 4
	s := New(Config{Workers: workers})
	width := s.Metrics().PoolWidth
	if want := runtime.GOMAXPROCS(0); width != want {
		t.Fatalf("PoolWidth = %d, want GOMAXPROCS = %d", width, want)
	}

	const jobs = 12
	var wg sync.WaitGroup
	var peak atomic.Int64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := int64(runtime.NumGoroutine())
			for {
				old := peak.Load()
				if g <= old || peak.CompareAndSwap(old, g) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 0; i < jobs; i++ {
		key := Key{GraphID: fmt.Sprintf("g%d", i), Opt: SolveOptions{Seed: int64(i)}}
		j, _, err := s.Submit(key, saturationGraph(int64(i)), SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			if _, err := s.Wait(context.Background(), j); err != nil {
				t.Error(err)
			}
		}(j)
	}
	wg.Wait()
	close(stop)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Budget: the scheduler's own goroutines (workers + per-job waiters
	// in this test + sampler) plus the one executor's width-1 persistent
	// lanes. Per-call spawning would blow through this on any multi-core
	// box: each solve alone used to start GOMAXPROCS goroutines per
	// primitive invocation, with nesting multiplying that.
	budget := int64(base + jobs + 2*workers + (width - 1) + 8)
	if got := peak.Load(); got > budget {
		t.Fatalf("peak goroutines %d exceeded pooled budget %d (base %d, workers %d, width %d)",
			got, budget, base, workers, width)
	}
}

// TestSharedExecutorWidth: every worker solves on one executor of width
// GOMAXPROCS, whatever the worker count, and a solve on it returns what a
// width-1 library solve does.
func TestSharedExecutorWidth(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	if got, want := s.Metrics().PoolWidth, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("PoolWidth = %d, want GOMAXPROCS = %d", got, want)
	}
	g := saturationGraph(99)
	j, _, err := s.Submit(Key{GraphID: "g", Opt: SolveOptions{Seed: 4, WantPartition: true}}, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	seq := parcut.NewExecutor(1)
	defer seq.Close()
	want, err := parcut.MinCut(g, parcut.Options{Seed: 4, WantPartition: true, Executor: seq})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.TreesScanned != want.TreesScanned {
		t.Fatalf("shared-executor result %+v != sequential %+v", got, want)
	}
}

// TestLoneSolveUsesEveryLane: with as many workers as GOMAXPROCS, one
// solve on an idle scheduler still forks its per-tree searches across
// the executor's lanes instead of running on one.
func TestLoneSolveUsesEveryLane(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	s := New(Config{Workers: runtime.GOMAXPROCS(0)})
	defer shutdown(t, s)
	j, _, err := s.Submit(Key{GraphID: "lone", Opt: SolveOptions{Seed: 3, Engine: "andersonblelloch"}},
		saturationGraph(5), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if res.TreesScanned < 2 {
		t.Fatalf("TreesScanned = %d; the test needs a graph with at least 2 packed trees", res.TreesScanned)
	}
	p := s.Metrics().Pool
	if p.Forks == 0 {
		t.Fatalf("a lone solve forked nothing on a width-%d executor; counters = %+v", runtime.GOMAXPROCS(0), p)
	}
}

// TestConcurrentJobsMatchLibrary: jobs running at once on the shared
// executor each return exactly the width-1 library result — value, tree
// count and partition — for both packed engines. Run with -race.
func TestConcurrentJobsMatchLibrary(t *testing.T) {
	const workers = 4
	s := New(Config{Workers: workers})
	defer shutdown(t, s)
	type job struct {
		j   *Job
		g   *parcut.Graph
		opt SolveOptions
	}
	var jobs []job
	for i := 0; i < 2*workers; i++ {
		eng := "andersonblelloch"
		if i%2 == 1 {
			eng = "geissmann"
		}
		opt := SolveOptions{Seed: int64(i), WantPartition: true, Engine: eng}
		g := parcut.RandomGraph(80, 320, 40, int64(100+i))
		j, _, err := s.Submit(Key{GraphID: fmt.Sprintf("c%d", i), Opt: opt}, g, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{j, g, opt})
	}
	seq := parcut.NewExecutor(1)
	defer seq.Close()
	for _, jb := range jobs {
		got, err := s.Wait(context.Background(), jb.j)
		if err != nil {
			t.Fatal(err)
		}
		want, err := parcut.MinCut(jb.g, parcut.Options{Seed: jb.opt.Seed, WantPartition: true,
			Engine: jb.opt.Engine, Executor: seq})
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.TreesScanned != want.TreesScanned || !slices.Equal(got.InCut, want.InCut) {
			t.Fatalf("%s seed %d: scheduler value %d trees %d, library value %d trees %d (partitions equal: %v)",
				jb.opt.Engine, jb.opt.Seed, got.Value, got.TreesScanned, want.Value, want.TreesScanned,
				slices.Equal(got.InCut, want.InCut))
		}
	}
}

// benchEngines are the served engines' benchmark cases: andersonblelloch
// and stoerwagner on the shapes auto sends them in cutbench's sparse and
// dense workloads, and geissmann on the scheduler's saturation graph.
var benchEngines = []struct {
	name, engine string
	graph        func(seed int64) *parcut.Graph
}{
	{"andersonblelloch/n=520", "andersonblelloch", func(seed int64) *parcut.Graph { return parcut.RandomGraph(520, 1040, 100, seed) }},
	{"stoerwagner/n=256", "stoerwagner", func(seed int64) *parcut.Graph { return parcut.RandomGraph(256, 8192, 100, seed) }},
	{"geissmann/n=150", "geissmann", saturationGraph},
}

// BenchmarkSaturation measures scheduler throughput with concurrent
// closed-loop clients (b.RunParallel, one per GOMAXPROCS) submitting
// distinct solves, one sub-benchmark per served engine — the load shape
// mincutd sees when saturated. The per-op metric is one full solve.
func BenchmarkSaturation(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			workers := min(runtime.GOMAXPROCS(0), 4)
			s := New(Config{Workers: workers, History: 4})
			defer s.Shutdown(context.Background())
			g := e.graph(7)
			// Distinct seeds defeat the result cache so every op is a real
			// solve; stoerwagner ignores seeds, so it also gets distinct
			// graph IDs.
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					key := Key{GraphID: fmt.Sprintf("bench%d", i), Opt: SolveOptions{Seed: i, Engine: e.engine}}
					j, _, err := s.Submit(key, g, SubmitOpts{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.Wait(context.Background(), j); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkLoneSolve runs one job at a time through Submit and Wait on a
// scheduler with the default worker count: the latency of a solve on an
// otherwise idle service, one sub-benchmark per served engine.
func BenchmarkLoneSolve(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			s := New(Config{Workers: runtime.GOMAXPROCS(0), History: 4})
			defer s.Shutdown(context.Background())
			g := e.graph(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := Key{GraphID: fmt.Sprintf("lone%d", i), Opt: SolveOptions{Seed: int64(i), Engine: e.engine}}
				j, _, err := s.Submit(key, g, SubmitOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Wait(context.Background(), j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSequentialReference is the seed-equivalent baseline: one
// solve at a time, full-machine executor. Saturated pooled throughput
// (BenchmarkSaturation ops/s x concurrency) should meet or beat it.
func BenchmarkSolveSequentialReference(b *testing.B) {
	g := saturationGraph(7)
	for i := 0; i < b.N; i++ {
		if _, err := parcut.MinCut(g, parcut.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
