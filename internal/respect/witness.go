package respect

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/lca"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/wd"
)

// Finding is an opaque result of Scan that Witness can expand into a
// partition.
type Finding struct {
	Value int64
	prov  provenance
}

// Scan returns the smallest at-most-2-respecting cut value and enough
// provenance to reconstruct the partition later (so callers can scan many
// trees and extract a witness only for the winner).
func Scan(g *graph.Graph, parent []int32, pool *par.Pool, m *wd.Meter) (Finding, error) {
	return ScanContext(context.Background(), g, parent, pool, m, nil, trace.SpanRef{})
}

// Witness reconstructs one side of the cut found by Scan over the original
// vertices. It re-runs the (deterministic) phase recursion up to the
// winning phase, then recomputes the winning query's view directly along
// one root path.
func Witness(g *graph.Graph, parent []int32, f Finding, pool *par.Pool, m *wd.Meter) ([]bool, error) {
	return witness(g, parent, f.prov, pool, m)
}

func witness(g *graph.Graph, parent []int32, prov provenance, pool *par.Pool, m *wd.Meter) ([]bool, error) {
	var pv phaseView
	if _, _, err := scan(g, parent, prov.phase, &pv, pool, m); err != nil {
		return nil, err
	}
	n := g.N()
	inCut := make([]bool, n)
	switch prov.kind {
	case kindOne:
		pool.For(n, func(o int) {
			inCut[o] = pv.t.IsAncestor(prov.y, pv.origOf[o])
		})
		m.Add(int64(n), 1)
		return inCut, nil
	case kindPair, kindDiff:
		x, err := findPartner(&pv, prov, pool, m)
		if err != nil {
			return nil, err
		}
		y := prov.y
		if prov.kind == kindPair {
			// S = y↓ ∪ x↓ (Figure 12).
			pool.For(n, func(o int) {
				cur := pv.origOf[o]
				inCut[o] = pv.t.IsAncestor(y, cur) || pv.t.IsAncestor(x, cur)
			})
		} else {
			// S = x↓ − y↓ (Figure 15).
			pool.For(n, func(o int) {
				cur := pv.origOf[o]
				inCut[o] = pv.t.IsAncestor(x, cur) && !pv.t.IsAncestor(y, cur)
			})
		}
		m.Add(int64(n), 1)
		return inCut, nil
	}
	return nil, fmt.Errorf("respect: unknown candidate kind %q", prov.kind)
}

// findPartner recomputes the weights the winning MinPath query saw, but
// only along the chain from the query target to the root: the Minimum
// Path weight of a chain vertex x at that moment was C(x↓) plus the
// (±2w) contributions of every edge incident to the processed set y↓
// whose other endpoint descends from x — and the chain vertices that are
// ancestors of such an endpoint b form exactly the suffix of the chain
// above LCA(target, b).
func findPartner(pv *phaseView, prov provenance, pool *par.Pool, m *wd.Meter) (int32, error) {
	t := pv.t
	// Locate y's bough; the processed set at y's up-visit is the bough
	// suffix from y down to the leaf.
	var bough []int32
	pos := -1
	for _, p := range pv.paths {
		for i, v := range p {
			if v == prov.y {
				bough, pos = p, i
				break
			}
		}
		if pos >= 0 {
			break
		}
	}
	if pos < 0 {
		return 0, fmt.Errorf("respect: witness vertex %d not in any bough", prov.y)
	}
	processed := bough[pos:]
	start := prov.z
	chainLen := int(t.Depth[start]) + 1
	acc := make([]int64, chainLen) // index j = chain vertex at depth(start)-j
	idxOf := func(x int32) int { return int(t.Depth[start] - t.Depth[x]) }
	sign := int64(-2)
	if prov.kind == kindDiff {
		sign = 2
	}
	l := lca.New(t, pool, m)
	adj := pv.g.BuildAdjOn(pool)
	for _, a := range processed {
		for i := adj.Off[a]; i < adj.Off[a+1]; i++ {
			b, w := adj.Nbr[i], adj.W[i]
			anc := l.Query(start, b) // lowest chain vertex that is an ancestor of b
			acc[idxOf(anc)] += sign * w
		}
	}
	if prov.kind == kindPair {
		// The ∞ block applies to all ancestors of the bough leaf.
		leaf := bough[len(bough)-1]
		acc[idxOf(l.Query(start, leaf))] += infWeight
	}
	// A contribution at index j applies to chain[j] and everything above.
	best, arg := maxValue, int32(-1)
	run := int64(0)
	v := start
	for j := 0; j < chainLen; j++ {
		run += acc[j]
		if w := pv.c[v] + run; w < best {
			best, arg = w, v
		}
		v = t.Parent[v]
	}
	m.Add(int64(chainLen), int64(chainLen))
	if arg < 0 {
		return 0, fmt.Errorf("respect: witness chain empty")
	}
	return arg, nil
}
