// Package mst computes minimum spanning forests with parallel Borůvka
// rounds. The tree-packing procedure behind Lemma 1 performs O(log² n)
// minimum spanning tree computations with respect to evolving edge loads;
// Borůvka is the classic O(log n)-round parallel MST algorithm, so it is
// the natural engine here (and it doubles as the connectivity test for
// detecting disconnected inputs, whose minimum cut is 0).
//
// Forest is the innermost loop of a solve — packing calls it O(log² n)
// times per estimate guess — so each round does only the work its
// remaining components need. A list of the live component roots,
// compacted once per round, drives every per-component step (clearing
// candidates, hooking, breaking mutual hooks, pointer jumping, collecting
// the selected edges); only the edge scan and the relabel visit every
// edge and every vertex, and the rounds stop once one component is left.
// Every loop body is a (lo, hi) chunk loop run at the executor's tuned
// ForGrain. The working arrays (component labels, live roots, candidate
// slots, hook chains, selection dedupe bits) come from the executor's
// arena and the loop bodies are pre-bound closures recycled through a
// state pool: a steady-state Forest call performs no O(n) or O(m)
// allocations beyond the selected-edge output the caller asked for.
package mst

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/wd"
)

// maxCost bounds edge costs so that (cost, edgeIndex) pairs pack into one
// uint64 for atomic candidate selection: cost < 2^38, index < 2^25.
const (
	maxCost  = int64(1) << 38
	maxEdges = 1 << 25
	noCand   = ^uint64(0)
)

// forestState carries one Forest invocation's working set. The loop-body
// closures are bound once, when the state is first created, and capture
// only the state pointer — so a recycled state re-runs the same closures
// over freshly borrowed arrays and the per-round loops allocate nothing.
// fInit and fRelabel run over vertices, fScan over edges, and the others
// over live[lo:hi].
type forestState struct {
	edges []graph.Edge
	cost  []int64
	comp  []int32
	live  []int32
	hook  []int32
	hook2 []int32
	cand  []atomic.Uint64
	seen  []bool

	changed atomic.Bool

	fInit    func(lo, hi int)
	fClear   func(lo, hi int)
	fScan    func(lo, hi int)
	fHook    func(lo, hi int)
	fBreak   func(lo, hi int)
	fJump    func(lo, hi int)
	fRelabel func(lo, hi int)
}

var forestStates sync.Pool

func getForestState() *forestState {
	if v := forestStates.Get(); v != nil {
		return v.(*forestState)
	}
	s := &forestState{}
	s.fInit = func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s.comp[v] = int32(v)
			s.live[v] = int32(v)
		}
	}
	s.fClear = func(lo, hi int) {
		for _, r := range s.live[lo:hi] {
			s.cand[r].Store(noCand)
		}
	}
	// Each component's candidate: the cheapest incident edge leaving it.
	s.fScan = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.edges[i]
			cu, cv := s.comp[e.U], s.comp[e.V]
			if cu == cv {
				continue
			}
			var c int64
			if s.cost != nil {
				c = s.cost[i]
			}
			key := uint64(c)<<25 | uint64(i)
			atomicMin(&s.cand[cu], key)
			atomicMin(&s.cand[cv], key)
		}
	}
	// Hook components along their candidate edges.
	s.fHook = func(lo, hi int) {
		for _, r := range s.live[lo:hi] {
			s.hook[r] = r
			key := s.cand[r].Load()
			if key == noCand {
				continue
			}
			e := s.edges[key&(1<<25-1)]
			other := s.comp[e.U]
			if other == r {
				other = s.comp[e.V]
			}
			s.hook[r] = other
		}
	}
	// Break mutual hooks (2-cycles) toward the smaller label.
	s.fBreak = func(lo, hi int) {
		for _, r := range s.live[lo:hi] {
			h := s.hook[r]
			if s.hook[h] == r && h > r {
				// r is the smaller of a mutual pair: it becomes the root.
				s.hook2[r] = r
			} else {
				s.hook2[r] = h
			}
		}
	}
	s.fJump = func(lo, hi int) {
		changed := false
		for _, r := range s.live[lo:hi] {
			h := s.hook[s.hook[r]]
			s.hook2[r] = h
			if h != s.hook[r] {
				changed = true
			}
		}
		if changed {
			s.changed.Store(true)
		}
	}
	s.fRelabel = func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s.comp[v] = s.hook[s.comp[v]]
		}
	}
	return s
}

func putForestState(s *forestState) {
	s.edges, s.cost = nil, nil
	s.comp, s.live, s.hook, s.hook2, s.cand, s.seen = nil, nil, nil, nil, nil, nil
	forestStates.Put(s)
}

// Forest computes a minimum spanning forest of the n-vertex multigraph
// with the given edges. cost[i] is the cost of edge i (nil means uniform
// cost); ties break by edge index, making the forest unique and the
// Borůvka hooking cycle-free. It returns the indices of the selected
// edges and the number of connected components.
func Forest(n int, edges []graph.Edge, cost []int64, pool *par.Pool, m *wd.Meter) (sel []int32, comps int) {
	if n == 0 {
		return nil, 0
	}
	ar := pool.Arena()
	compP := ar.Int32(n)
	sel = make([]int32, 0, n-1)
	sel, comps = forestInto(n, edges, cost, pool, m, *compP, sel)
	ar.PutInt32(compP)
	return sel, comps
}

// ForestWithLabels is Forest, additionally returning a component label per
// vertex (labels are representative vertex ids, not compacted).
func ForestWithLabels(n int, edges []graph.Edge, cost []int64, pool *par.Pool, m *wd.Meter) (sel []int32, labels []int32, comps int) {
	if n == 0 {
		return nil, nil, 0
	}
	labels = make([]int32, n)
	sel = make([]int32, 0, n-1)
	sel, comps = forestInto(n, edges, cost, pool, m, labels, sel)
	return sel, labels, comps
}

// Components returns the number of connected components (Borůvka with
// uniform costs, discarding the forest). With the forest discarded, every
// working array comes from the executor's arena: steady-state calls are
// allocation-free.
func Components(n int, edges []graph.Edge, pool *par.Pool, m *wd.Meter) int {
	if n == 0 {
		return 0
	}
	ar := pool.Arena()
	compP := ar.Int32(n)
	selP := ar.Int32(n - 1)
	_, comps := forestInto(n, edges, nil, pool, m, *compP, (*selP)[:0])
	ar.PutInt32(selP)
	ar.PutInt32(compP)
	return comps
}

// forestInto runs the Borůvka rounds, writing component labels into comp
// (len n, caller-provided) and appending selected edge indices to sel
// (cap n-1 avoids regrowth). It returns the final sel and the component
// count.
//
// A component is named by its root vertex, and s.live lists the current
// roots in ascending order, so edges are collected in vertex order. The
// candidate and hook slots of a vertex that is no longer a root keep
// stale values; they are never read, because labels and hooks only ever
// name live roots. After the jumps the list is compacted to the roots
// whose hook is still themselves.
func forestInto(n int, edges []graph.Edge, cost []int64, pool *par.Pool, m *wd.Meter, comp, sel []int32) ([]int32, int) {
	mm := len(edges)
	if mm >= maxEdges {
		panic(fmt.Sprintf("mst: %d edges exceed packed-candidate limit %d", mm, maxEdges))
	}
	if cost != nil {
		for i, c := range cost {
			if c < 0 || c >= maxCost {
				panic(fmt.Sprintf("mst: cost[%d]=%d outside [0, 2^38)", i, c))
			}
		}
	}
	grain := pool.Tuning().ForGrain
	ar := pool.Arena()
	candP := ar.AtomicUint64(n)
	hookP := ar.Int32(n)
	hook2P := ar.Int32(n)
	liveP := ar.Int32(n)
	seenP := ar.Bool(mm)

	s := getForestState()
	s.edges, s.cost = edges, cost
	s.comp, s.cand, s.live = comp, *candP, *liveP
	s.hook, s.hook2 = *hookP, *hook2P
	s.seen = *seenP
	// seen dedupes selected edges across the whole call: once an edge is
	// selected its endpoints share a component, so it can never become a
	// candidate again — one clear up front suffices.
	clear(s.seen)

	pool.ForChunk(n, grain, s.fInit)
	comps := n
	// One component has no edge leaving it, so the loop stops there
	// without the scan that would find no candidate; a disconnected input
	// ends on a round that makes no progress.
	for round := 0; comps > 1; round++ {
		if round > int(wd.CeilLog2(n))+2 {
			panic("mst: round bound exceeded")
		}
		live := len(s.live)
		pool.ForChunk(live, grain, s.fClear)
		pool.ForChunk(mm, grain, s.fScan)
		m.Add(int64(mm), 1)
		pool.ForChunk(live, grain, s.fHook)
		pool.ForChunk(live, grain, s.fBreak)
		s.hook, s.hook2 = s.hook2, s.hook
		// Collect selected edges (dedupe mutual candidates).
		progress := false
		for _, r := range s.live {
			key := s.cand[r].Load()
			if key == noCand {
				continue
			}
			idx := int32(key & (1<<25 - 1))
			if !s.seen[idx] {
				s.seen[idx] = true
				sel = append(sel, idx)
				comps--
				progress = true
			}
		}
		if !progress {
			break
		}
		// Clear, hook, break, collect and the compaction below each visit
		// the live roots once, and so does every jump.
		visits := 5 * int64(live)
		// Pointer-jump hooks to roots and relabel vertex components.
		for j := int64(0); j <= wd.CeilLog2(n); j++ {
			s.changed.Store(false)
			pool.ForChunk(live, grain, s.fJump)
			visits += int64(live)
			s.hook, s.hook2 = s.hook2, s.hook
			if !s.changed.Load() {
				break
			}
		}
		pool.ForChunk(n, grain, s.fRelabel)
		k := 0
		for _, r := range s.live {
			if s.hook[r] == r {
				s.live[k] = r
				k++
			}
		}
		s.live = s.live[:k]
		m.Add(int64(n)+visits, wd.CeilLog2(n)+2)
	}

	// The hook/hook2 swaps may have exchanged the backing arrays; restore
	// the headers before returning them to the arena.
	*hookP, *hook2P = s.hook, s.hook2
	putForestState(s)
	ar.PutAtomicUint64(candP)
	ar.PutInt32(hookP)
	ar.PutInt32(hook2P)
	ar.PutInt32(liveP)
	ar.PutBool(seenP)
	return sel, comps
}

// atomicMin lowers a to min(a, key).
func atomicMin(a *atomic.Uint64, key uint64) {
	for {
		cur := a.Load()
		if key >= cur || a.CompareAndSwap(cur, key) {
			return
		}
	}
}

// Kruskal is the sequential reference MST used by tests: sort edge indices
// by (cost, index) and union-find.
func Kruskal(n int, edges []graph.Edge, cost []int64) (sel []int32, comps int) {
	idx := make([]int32, len(edges))
	for i := range idx {
		idx[i] = int32(i)
	}
	par.SortStable(idx, func(a, b int32) bool {
		var ca, cb int64
		if cost != nil {
			ca, cb = cost[a], cost[b]
		}
		if ca != cb {
			return ca < cb
		}
		return a < b
	})
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps = n
	for _, i := range idx {
		e := edges[i]
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
			sel = append(sel, i)
			comps--
		}
	}
	return sel, comps
}
