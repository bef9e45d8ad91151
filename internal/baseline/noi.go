package baseline

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
)

// cell is one entry of NagamochiIbaraki's weight matrix. It is a type of
// its own so that the n² matrix has a free-list of its own in the arena:
// no O(n) []int64 borrower is handed a matrix, and borrowing a matrix
// never draws, and drops, an O(n) buffer.
type cell int64

// NagamochiIbaraki computes an exact global minimum cut: maximum-adjacency
// passes with Nagamochi–Ibaraki contraction, O(n³) worst case. It keeps
// Stoer–Wagner's dense matrix and one-pass maximum-adjacency step, but a
// pass contracts every pair it certifies instead of one pair per phase.
//
// The bound λ̂ is the lightest cut seen so far, starting at the minimum
// weighted degree. A pass orders the active supernodes by maximum
// adjacency from the first one. When x joins the prefix A with
// attachment r(x) = w(A, x), the prefix's cut becomes α + deg(x) − 2r(x),
// and a proper prefix lighter than λ̂ lowers it. Adding x's row to the
// other supernodes' attachments unites x with every y whose r(y) reaches
// λ̂: restricted to A ∪ {y} the ordering ends with x, y, so λ(x, y) ≥ r(y)
// (Nagamochi and Ibaraki 1992), and no cut lighter than λ̂ separates them.
// The last two supernodes of the ordering are always united, since
// λ(prev, last) is last's degree, a prefix cut already seen; so every
// pass merges at least one pair, even over a disconnected remainder.
// After the pass each union class folds into one supernode (matrix row,
// degree and member chain), and each supernode's degree is one more
// candidate. A recorded side is materialized into the returned slice
// when it is found, because member chains grow with later merges.
//
// ctx is checked before every pass and after every notification; sink
// (nil-safe) enters PhaseContract, plans n−1 merges on the tree counters
// and counts one per merged supernode, so a completed solve reads done ==
// total; sp, when active, gains one "contract" child span whose "passes"
// attribute is the number of passes. Every working array, the matrix
// included, is borrowed from pool's arena (the default pool's when pool
// is nil), so a steady-state solve allocates only its returned side.
// Every loop is sequential.
func NagamochiIbaraki(ctx context.Context, g *graph.Graph, pool *par.Pool, sink *progress.Sink, sp trace.SpanRef) (int64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, fmt.Errorf("baseline: minimum cut needs at least 2 vertices")
	}
	passes := 0
	csp := sp.Child("contract")
	defer func() {
		csp.AttrInt("passes", int64(passes))
		csp.End()
	}()
	sink.EnterPhase(progress.PhaseContract)
	sink.AddTrees(int64(n - 1))
	if err := ctx.Err(); err != nil {
		return 0, nil, fmt.Errorf("baseline: canceled: %w", err)
	}

	ar := pool.Arena()
	wp := par.Slice[cell](ar, n*n)
	i64p := ar.Int64(2 * n)
	i32p := ar.Int32(6 * n)
	defer func() {
		par.PutSlice(ar, wp)
		ar.PutInt64(i64p)
		ar.PutInt32(i32p)
	}()
	w := *wp
	clear(w)
	// deg[v] is supernode v's weighted degree and attach its pass's
	// attachments to A, position for position with rest.
	deg, attach := (*i64p)[:n:n], (*i64p)[n:2*n:2*n]
	clear(deg)
	part := func(k int) []int32 { return (*i32p)[k*n : (k+1)*n : (k+1)*n] }
	// active lists the supernodes in increasing id; rest is a pass's
	// supernodes not yet in A and order its maximum-adjacency ordering;
	// uf is the pass's union-find, whose roots are each class's least id.
	// The original vertices merged into supernode v form the chain v,
	// next[v], …, tail[v], ending in -1.
	active, rest, order, uf, next, tail := part(0), part(1), part(2), part(3), part(4), part(5)
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		w[int(e.U)*n+int(e.V)] += cell(e.W)
		w[int(e.V)*n+int(e.U)] += cell(e.W)
		deg[e.U] += e.W
		deg[e.V] += e.W
	}
	for v := range active {
		active[v], next[v], tail[v] = int32(v), -1, int32(v)
	}
	inCut := make([]bool, n)
	// mark adds v's chain to the side in inCut.
	mark := func(v int32) {
		for ; v >= 0; v = next[v] {
			inCut[v] = true
		}
	}
	best := int64(-1)
	var bestV int32
	for v, d := range deg {
		if best < 0 || d < best {
			best, bestV = d, int32(v)
		}
	}
	mark(bestV)

	for len(active) > 1 {
		if err := ctx.Err(); err != nil {
			return 0, nil, fmt.Errorf("baseline: canceled: %w", err)
		}
		passes++
		for _, v := range active {
			uf[v] = v
		}
		// The maximum-adjacency pass from x = active[0]. Each step adds
		// x's row to the attachments of rest, the supernodes not yet in
		// A, and the first maximum becomes the next x; it leaves rest by
		// trading places with rest's last entry. When that maximum
		// reaches best, a second loop unites x with every supernode whose
		// attachment does.
		rest = append(rest[:0], active[1:]...)
		attach = attach[:len(rest)]
		clear(attach)
		x := active[0]
		order = append(order[:0], x)
		alpha, bestK := deg[x], 0
		if alpha < best {
			best, bestK = alpha, 1
		}
		for len(rest) > 0 {
			pick, pickW := maStep(rest, attach, w[int(x)*n:int(x)*n+n])
			if pickW >= best {
				for i, u := range rest {
					if attach[i] >= best {
						union(uf, x, u)
					}
				}
			}
			x = rest[pick]
			last := len(rest) - 1
			rest[pick], attach[pick] = rest[last], attach[last]
			rest, attach = rest[:last], attach[:last]
			order = append(order, x)
			alpha += deg[x] - 2*pickW
			if len(rest) > 0 && alpha < best {
				best, bestK = alpha, len(order)
			}
		}
		union(uf, order[len(order)-2], x)
		if bestK > 0 {
			clear(inCut)
			for _, v := range order[:bestK] {
				mark(v)
			}
		}

		// Fold. Every class's root keeps its row, and rest collects the
		// supernodes merged into a root. A root's row first sums its
		// members' rows over the pass's columns (order); then each
		// merged column moves onto its own root's column, or, inside the
		// root's class, comes off the degree sum as internal weight.
		rest = rest[:0]
		roots := active[:0]
		for _, v := range active {
			if r := find(uf, v); r != v {
				uf[v] = r
				rest = append(rest, v)
			} else {
				roots = append(roots, v)
			}
		}
		active = roots
		for _, u := range rest {
			r := uf[u]
			rowR, rowU := w[int(r)*n:int(r)*n+n], w[int(u)*n:int(u)*n+n]
			for _, c := range order {
				rowR[c] += rowU[c]
			}
			deg[r] += deg[u]
			next[tail[r]] = u
			tail[r] = tail[u]
			sink.TreeDone()
			if err := ctx.Err(); err != nil {
				return 0, nil, fmt.Errorf("baseline: canceled: %w", err)
			}
		}
		for _, r := range active {
			row := w[int(r)*n : int(r)*n+n]
			for _, v := range rest {
				if rv := uf[v]; rv == r {
					deg[r] -= int64(row[v])
				} else {
					row[rv] += row[v]
				}
			}
			deg[r] -= int64(row[r])
			row[r] = 0
		}
		if len(active) < 2 {
			break
		}
		// Each supernode's degree is a cut; one whose class did not grow
		// was already a candidate.
		bestR := int32(-1)
		for _, r := range active {
			if deg[r] < best {
				best, bestR = deg[r], r
			}
		}
		if bestR >= 0 {
			clear(inCut)
			mark(bestR)
		}
	}
	return best, inCut, nil
}

// maStep is one maximum-adjacency step: it adds row, a matrix row, to
// the attachments of rest (position for position in attach) and returns
// the first maximum's position and attachment, or -1 for an empty rest.
// It is not inlined: compiled on its own, its loop keeps every variable
// in a register, where inside NagamochiIbaraki three of them spill.
//
//go:noinline
func maStep(rest []int32, attach []int64, row []cell) (pick int, pickW int64) {
	attach = attach[:len(rest)]
	// Attachments are at least 0, so the first candidate beats -1.
	pickW = -1
	for i, u := range rest {
		r := attach[i] + int64(row[u])
		attach[i] = r
		if r > pickW {
			pick, pickW = i, r
		}
	}
	return pick, pickW
}

// find returns v's root in the union-find uf, halving the path.
func find(uf []int32, v int32) int32 {
	for uf[v] != v {
		uf[v] = uf[uf[v]]
		v = uf[v]
	}
	return v
}

// union joins the classes of x and y under the lesser root.
func union(uf []int32, x, y int32) {
	rx, ry := find(uf, x), find(uf, y)
	switch {
	case rx < ry:
		uf[ry] = rx
	case ry < rx:
		uf[rx] = ry
	}
}
