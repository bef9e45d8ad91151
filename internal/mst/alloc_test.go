package mst

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/wd"
)

// allocPools returns pools of width 1 and 2: Forest and Components
// borrow their scratch from the pool's arena, so the allocation tests run
// n=2048 on both.
func allocPools(t *testing.T) []*par.Pool {
	seq := par.NewPool(1)
	wide := par.NewPool(2)
	t.Cleanup(seq.Close)
	t.Cleanup(wide.Close)
	return []*par.Pool{seq, wide}
}

// TestComponentsZeroAllocSteadyState asserts the packing inner loop's
// core claim: a steady-state connectivity check — the operation
// EstimateCut hammers while walking the sampling rate — performs zero
// heap allocations once the executor's arena is warm. The Kruskal pass
// takes its labels, the discarded selection, the sort's index buffers and
// its digit counts from the arena, on every pool width.
func TestComponentsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; zero-alloc holds only in normal builds")
	}
	const n = 2048
	edges := make([]graph.Edge, 0, 2*n)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i / 2), V: int32(i), W: 1})
	}
	for i := 0; i+7 < n; i += 3 {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 7), W: 1})
	}
	m := &wd.Meter{}
	for _, p := range allocPools(t) {
		t.Run(fmt.Sprintf("width=%d", p.Width()), func(t *testing.T) {
			run := func() {
				if comps := Components(n, edges, p, m); comps != 1 {
					t.Fatalf("Components = %d, want 1", comps)
				}
			}
			run() // warm the arena
			if avg := testing.AllocsPerRun(50, run); avg > 0 {
				t.Errorf("steady-state Components: %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestForestSteadyStateAllocsOnlyOutput: given room for its output and
// packing-shaped costs, Forest allocates nothing: its working arrays come
// from the arena, and it appends the selected edges to the caller's
// buffer.
func TestForestSteadyStateAllocsOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; the zero-alloc bound holds only in normal builds")
	}
	const n = 2048
	edges := make([]graph.Edge, 0, 2*n)
	cost := make([]int64, 0, 2*n)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i / 2), V: int32(i), W: 1})
		cost = append(cost, int64(i%5))
	}
	for i := 0; i+7 < n; i += 3 {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 7), W: 1})
		cost = append(cost, int64(i%3))
	}
	m := &wd.Meter{}
	buf := make([]int32, 0, n-1)
	for _, p := range allocPools(t) {
		t.Run(fmt.Sprintf("width=%d", p.Width()), func(t *testing.T) {
			run := func() {
				sel, comps := Forest(buf, n, edges, cost, p, m)
				if comps != 1 || len(sel) != n-1 {
					t.Fatalf("Forest: %d comps, %d edges", comps, len(sel))
				}
			}
			run()
			if avg := testing.AllocsPerRun(50, run); avg > 0 {
				t.Errorf("steady-state Forest into a buffer: %.2f allocs/op, want 0", avg)
			}
		})
	}
}
