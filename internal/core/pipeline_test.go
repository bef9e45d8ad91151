package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/wd"
)

// TestTreeSearchesStartDuringPacking pins the overlap of packing and the
// tree searches. On a width-2 or width-4 executor every tree's search is
// handed to the executor while packing still runs: when the sink enters
// the scan phase, Forks already equals the number of trees searched and
// no later fork follows (the andersonblelloch search forks nothing on
// graphs this small). No tree is credited to TreesDone before the scan
// phase, and every tree-scan span sits under the packing span. On a
// width-1 executor nothing forks and every tree-scan span sits under the
// scan span. Results equal the width-1 solve's throughout.
func TestTreeSearchesStartDuringPacking(t *testing.T) {
	for _, spec := range []string{"cycle:n=256,w=50", "random:n=200,m=400,w=100"} {
		g, _, err := gen.FromSpec(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		var ref Result
		for _, w := range []int{1, 2, 4} {
			pool := par.NewPool(w)
			// Searches notify from executor lanes too. The first notify to
			// see the scan phase holds mu until it has read the counters,
			// so it reads them before the solve goroutine's own scan-entry
			// notify returns, and so before any tree is credited.
			var mu sync.Mutex
			var atScan progress.Snapshot
			var forksAtScan int64 = -1
			sink := &progress.Sink{}
			sink.Notify = func() {
				mu.Lock()
				defer mu.Unlock()
				if forksAtScan < 0 && sink.Phase() == progress.PhaseScan {
					forksAtScan, atScan = pool.Stats().Forks, sink.Snapshot()
				}
			}
			var tr *trace.Trace
			rec := trace.NewRecorder("t", 0, func(x *trace.Trace) { tr = x })
			root := rec.Start("solve")
			res, err := Solve(context.Background(), g, Options{Seed: 7, WantPartition: true, Pool: pool, Progress: sink, Trace: root}, HeavyPaths)
			root.End()
			rec.Release()
			forks := pool.Stats().Forks
			pool.Close()
			if err != nil {
				t.Fatalf("%s width %d: %v", spec, w, err)
			}
			if w == 1 {
				ref = res
			} else if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s width %d: result %+v differs from width 1's %+v", spec, w, res, ref)
			}
			want := int64(res.TreesScanned)
			if w == 1 {
				want = 0
			}
			if forksAtScan != want || forks != want {
				t.Errorf("%s width %d: %d forks at the scan phase's start and %d after the solve, want %d and %d",
					spec, w, forksAtScan, forks, want, want)
			}
			if atScan.TreesDone != 0 {
				t.Errorf("%s width %d: %d trees credited before the scan phase", spec, w, atScan.TreesDone)
			}
			if s := sink.Snapshot(); s.TreesDone != int64(res.TreesScanned) || s.TreesTotal != s.TreesDone {
				t.Errorf("%s width %d: trees %d/%d, Result.TreesScanned %d", spec, w, s.TreesDone, s.TreesTotal, res.TreesScanned)
			}
			under := map[string]int{}
			for _, sp := range tr.Spans {
				if sp.Name == "tree-scan" {
					under[tr.Spans[sp.Parent].Name]++
				}
			}
			wantUnder := map[string]int{"packing": res.TreesScanned}
			if w == 1 {
				wantUnder = map[string]int{"scan": res.TreesScanned}
			}
			if !reflect.DeepEqual(under, wantUnder) {
				t.Errorf("%s width %d: tree-scan spans by parent %v, want %v", spec, w, under, wantUnder)
			}
		}
	}
}

// TestRejectedGuessSearchesDiscarded forces packing guesses that are
// rejected after all their rounds completed: with packing seed 2 this
// dumbbell takes four guesses, and the first two announce trees (see
// packing's TestAnnouncedTreesAreDrawnTrees). So at width 2 and 4 the
// solve forks searches for trees the accepted packing does not return:
// Forks exceeds the returned tree count. A search of such a tree blocks
// until its context is canceled and then reports a value below every
// cut, with no witness; the solve must cancel and join it, return what a
// width-1 solve returns, and credit TreesDone once per returned tree.
func TestRejectedGuessSearchesDiscarded(t *testing.T) {
	g, _, err := gen.FromSpec("dumbbell:n=20,bridge=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1 // core packs with seed+1
	pk, err := packing.SampleTrees(g, packing.Options{Seed: seed + 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pk.Packings < 2 {
		t.Fatalf("packing accepted its guess %d: no rejected guess to test", pk.Packings-1)
	}
	accepted := map[string]bool{}
	for _, tr := range pk.Trees {
		pairs := make([][2]int32, len(tr))
		for i, ei := range tr {
			e := g.Edge(int(ei))
			pairs[i] = [2]int32{min(e.U, e.V), max(e.U, e.V)}
		}
		accepted[pairKey(pairs)] = true
	}
	ref, err := Solve(context.Background(), g, Options{Seed: seed, WantPartition: true, Pool: par.NewPool(1)}, HeavyPaths)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		pool := par.NewPool(w)
		search := func(g *graph.Graph, deg []int64, pool *par.Pool) TreeSearch {
			inner := HeavyPaths(g, deg, pool)
			return func(ctx context.Context, parent []int32, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (int64, Witness, error) {
				var pairs [][2]int32
				for v, p := range parent {
					if p >= 0 {
						pairs = append(pairs, [2]int32{min(int32(v), p), max(int32(v), p)})
					}
				}
				if !accepted[pairKey(pairs)] {
					<-ctx.Done()
					return -1, nil, nil
				}
				return inner(ctx, parent, m, sink, sp)
			}
		}
		sink := &progress.Sink{}
		type outcome struct {
			res Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := Solve(context.Background(), g, Options{Seed: seed, WantPartition: true, Pool: pool, Progress: sink}, search)
			done <- outcome{res, err}
		}()
		var res Result
		select {
		case o := <-done:
			res, err = o.res, o.err
		case <-time.After(60 * time.Second):
			t.Fatalf("width %d: the solve did not return: a rejected guess's search was never canceled", w)
		}
		forks := pool.Stats().Forks
		pool.Close()
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("width %d: result %+v, width-1 result %+v", w, res, ref)
		}
		if forks <= int64(len(pk.Trees)) {
			t.Errorf("width %d: %d forks for %d returned trees: no rejected guess's search was forked", w, forks, len(pk.Trees))
		}
		if s := sink.Snapshot(); s.TreesDone != int64(len(pk.Trees)) || s.TreesTotal != s.TreesDone {
			t.Errorf("width %d: trees %d/%d, want %d/%d", w, s.TreesDone, s.TreesTotal, len(pk.Trees), len(pk.Trees))
		}
	}
}

// TestCanceledSolveJoinsItsSearches: a solve canceled while its tree
// searches run returns only after every search it started has returned.
// The first search to start cancels the solve's context and lingers; at
// width 2 and 4 packing usually still runs then, so the solve fails in
// packing with that search in flight, and otherwise it fails in the scan
// phase.
func TestCanceledSolveJoinsItsSearches(t *testing.T) {
	g, _, err := gen.FromSpec("cycle:n=256,w=50", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		pool := par.NewPool(w)
		ctx, cancel := context.WithCancel(context.Background())
		var started, inFlight atomic.Int32
		search := func(g *graph.Graph, deg []int64, pool *par.Pool) TreeSearch {
			inner := HeavyPaths(g, deg, pool)
			return func(ctx context.Context, parent []int32, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (int64, Witness, error) {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				if started.Add(1) == 1 {
					cancel()
					time.Sleep(20 * time.Millisecond)
				}
				return inner(ctx, parent, m, sink, sp)
			}
		}
		_, err := Solve(ctx, g, Options{Seed: 7, Pool: pool}, search)
		if n := inFlight.Load(); n != 0 {
			t.Errorf("width %d: %d searches still running after Solve returned", w, n)
		}
		pool.Close()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("width %d: err = %v, want context.Canceled", w, err)
		}
	}
}

// pairKey is a tree's sorted vertex pairs as a map key.
func pairKey(pairs [][2]int32) string {
	slices.SortFunc(pairs, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return fmt.Sprint(pairs)
}
