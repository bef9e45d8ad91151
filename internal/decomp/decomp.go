// Package decomp decomposes a rooted tree into vertex-disjoint paths by
// iteratively peeling boughs (paper §3.3): a bough starts at a leaf and
// continues upward until the first vertex that has a sibling. Peeling all
// boughs at least halves the number of leaves, so there are at most
// log2(n)+1 phases (Lemma 7) and every root-to-leaf path crosses at most
// that many paths of the decomposition.
//
// Bough membership is detected with subtree sums over the preorder (a
// vertex is in a bough exactly when no vertex of its remaining subtree has
// two or more remaining children), and boughs are ordered with list
// ranking, the same primitive the paper uses in §4.2 step 1.
package decomp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/listrank"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

// Decomposition is a partition of the tree's vertices into directed paths.
// Path vertices are stored front first, where the front is the vertex
// closest to the root (§2.3.2).
type Decomposition struct {
	Tree  *tree.Tree
	Paths [][]int32
	// FrontParent[p] is the tree parent of the front vertex of path p
	// (tree.None if the front is the root). Operations that walk from a
	// vertex to the root continue in FrontParent's path.
	FrontParent []int32
	PathOf      []int32 // path id of each vertex
	PosOf       []int32 // position of each vertex within its path (0 = front)
	PhaseOf     []int32 // 1-based peeling phase of each vertex
	PhaseOfPath []int32
	NumPhases   int
}

// Decompose peels the whole tree and returns the full decomposition.
func Decompose(t *tree.Tree, pool *par.Pool, m *wd.Meter) *Decomposition {
	n := t.N()
	d := &Decomposition{
		Tree:    t,
		PathOf:  make([]int32, n),
		PosOf:   make([]int32, n),
		PhaseOf: make([]int32, n),
	}
	alive := make([]bool, n)
	count := make([]int32, n) // remaining children per vertex
	pool.For(n, func(v int) {
		alive[v] = true
		count[v] = t.NumChildren(int32(v))
	})
	m.Add(int64(n), 1)
	remaining := n
	phase := int32(0)
	st, release := newPhaseState(pool.Arena(), n)
	defer release()
	memberBuf := make([]int32, 0, n)
	for remaining > 0 {
		phase++
		if phase > int32(wd.CeilLog2(n))+2 {
			panic(fmt.Sprintf("decomp: phase bound exceeded (n=%d, phase=%d)", n, phase))
		}
		members, paths, fronts := peelPhase(t, alive, count, st, d, pool, m, memberBuf[:0])
		if len(members) == 0 {
			panic("decomp: phase made no progress")
		}
		for i, p := range paths {
			d.Paths = append(d.Paths, p)
			d.PhaseOfPath = append(d.PhaseOfPath, phase)
			d.FrontParent = append(d.FrontParent, t.Parent[fronts[i]])
		}
		for _, v := range members {
			d.PhaseOf[v] = phase
		}
		remaining -= len(members)
	}
	d.NumPhases = int(phase)
	return d
}

// Boughs returns only the first peeling phase of t: the bough paths (front
// first) and the membership indicator, leaving t conceptually unmodified.
// This is the per-phase step the two-respecting cut search drives itself
// (§4.3 re-contracts the graph between phases). sink (nil OK) records the
// number of boughs found, so live progress can report bough counts from
// the decomposition itself rather than from its callers. sp (zero OK)
// gets a "boughs" child span annotated with the bough count, attributing
// the decomposition's share of each phase's wall clock.
func Boughs(t *tree.Tree, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (paths [][]int32, member []bool) {
	dsp := sp.Child("boughs")
	n := t.N()
	ar := pool.Arena()
	aliveP := ar.Bool(n)
	countP := ar.Int32(n)
	pathOfP := ar.Int32(n)
	posOfP := ar.Int32(n)
	membersP := ar.Int32(n)
	alive, count := *aliveP, *countP
	pool.For(n, func(v int) {
		alive[v] = true
		count[v] = t.NumChildren(int32(v))
	})
	m.Add(int64(n), 1)
	// The single-phase peel never reads PhaseOf, and PathOf/PosOf die with
	// this call — all of it comes from the arena.
	d := &Decomposition{
		Tree:   t,
		PathOf: *pathOfP,
		PosOf:  *posOfP,
	}
	st, release := newPhaseState(ar, n)
	_, ps, _ := peelPhase(t, alive, count, st, d, pool, m, (*membersP)[:0])
	sink.AddBoughs(len(ps))
	dsp.AttrInt("boughs", int64(len(ps))).End()
	// st.member is exactly the phase-1 membership; copy it into the
	// caller-owned indicator before the scratch goes back.
	member = make([]bool, n)
	copy(member, st.member)
	release()
	ar.PutInt32(membersP)
	ar.PutInt32(posOfP)
	ar.PutInt32(pathOfP)
	ar.PutInt32(countP)
	ar.PutBool(aliveP)
	return ps, member
}

// phaseState holds scratch arrays reused across phases. The arrays are
// borrowed from the executor's arena (the bough peel runs once per
// scan-mode phase of every solve, so recycling them keeps the steady
// state allocation-free) and handed back by the release func.
type phaseState struct {
	bad    []int64
	member []bool
	jump   []int32
	jump2  []int32
	next   []int32
	cnt    []atomic.Int64
}

func newPhaseState(ar *par.Arena, n int) (*phaseState, func()) {
	badP := ar.Int64(n + 1)
	memberP := ar.Bool(n)
	jumpP := ar.Int32(n)
	jump2P := ar.Int32(n)
	nextP := ar.Int32(n)
	cntP := ar.AtomicInt64(n)
	st := &phaseState{
		bad:    *badP,
		member: *memberP,
		jump:   *jumpP,
		jump2:  *jump2P,
		next:   *nextP,
		cnt:    *cntP,
	}
	// cnt must start zero and peelPhase leaves it zero (it resets every
	// cell it incremented), so one clear at borrow covers all phases.
	clear(st.cnt)
	release := func() {
		ar.PutInt64(badP)
		ar.PutBool(memberP)
		ar.PutInt32(jumpP)
		ar.PutInt32(jump2P)
		ar.PutInt32(nextP)
		ar.PutAtomicInt64(cntP)
	}
	return st, release
}

// peelPhase identifies the boughs of the remaining tree, records their
// paths into d (PathOf/PosOf), removes them from alive/count, and returns
// the removed vertices, the new paths (front first), and the front vertex
// of each path.
func peelPhase(t *tree.Tree, alive []bool, count []int32, st *phaseState,
	d *Decomposition, pool *par.Pool, m *wd.Meter, memberBuf []int32) (members []int32, paths [][]int32, fronts []int32) {

	n := t.N()
	// bad[i+1] = 1 when the vertex at preorder position i is alive and
	// branching; a vertex is a bough member iff its alive subtree contains
	// no branching vertex (subtree = preorder interval).
	pool.For(n, func(i int) {
		v := t.Pre[i]
		if alive[v] && count[v] >= 2 {
			st.bad[i+1] = 1
		} else {
			st.bad[i+1] = 0
		}
	})
	pool.InclusiveSum(st.bad, st.bad)
	pool.For(n, func(vi int) {
		v := int32(vi)
		st.member[v] = alive[v] && st.bad[t.Out[v]] == st.bad[t.In[v]]
	})
	m.Add(3*int64(n), 2+wd.CeilLog2(n))
	// Boughs are maximal member chains; the parent of a member is in the
	// same bough iff the parent is itself a member. Order each bough by
	// list ranking (distance to the bough top = position from the front)
	// and find tops by pointer doubling.
	pool.For(n, func(vi int) {
		v := int32(vi)
		st.next[v] = listrank.Nil
		st.jump[v] = v
		if !st.member[v] {
			return
		}
		if p := t.Parent[v]; p != tree.None && st.member[p] {
			st.next[v] = p
			st.jump[v] = p
		}
	})
	m.Add(int64(n), 1)
	rank := listrank.Rank(st.next, pool, m)
	rounds := wd.CeilLog2(n) + 1
	jump, jump2 := st.jump, st.jump2
	for r := int64(0); r < rounds; r++ {
		pool.For(n, func(v int) {
			jump2[v] = jump[jump[v]]
		})
		jump, jump2 = jump2, jump
	}
	m.Add(int64(n)*rounds, rounds)
	top := jump
	// Count bough sizes at the tops, then assign path ids to tops.
	pool.For(n, func(v int) {
		if st.member[v] {
			st.cnt[top[v]].Add(1)
		}
	})
	m.Add(int64(n), 1)
	for vi := 0; vi < n; vi++ {
		v := int32(vi)
		if st.member[v] && top[v] == v {
			paths = append(paths, make([]int32, st.cnt[v].Load()))
			fronts = append(fronts, v)
			d.PathOf[v] = int32(len(d.Paths) + len(paths) - 1)
		}
	}
	// Scatter members into their paths by rank (rank = distance to top =
	// position from the front) and remove them from the tree.
	pool.For(n, func(vi int) {
		v := int32(vi)
		if !st.member[v] {
			return
		}
		// The loop above set each top's path id; other members of its
		// bough read it here, so the top must not write it again.
		tp := top[v]
		pid := d.PathOf[tp]
		if v != tp {
			d.PathOf[v] = pid
		}
		d.PosOf[v] = rank[v]
		paths[pid-int32(len(d.Paths))][rank[v]] = v
		alive[v] = false
		st.cnt[v].Store(0)
	})
	m.Add(int64(n), 1)
	// Each bough top's parent (if alive) loses one child.
	for i := range fronts {
		if p := t.Parent[fronts[i]]; p != tree.None {
			count[p]--
		}
	}
	m.Add(int64(len(fronts)), 1)
	members = memberBuf
	for vi := 0; vi < n; vi++ {
		if st.member[vi] {
			members = append(members, int32(vi))
		}
	}
	return members, paths, fronts
}
