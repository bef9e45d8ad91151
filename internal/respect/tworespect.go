package respect

import (
	"context"
	"fmt"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/lca"
	"repro/internal/minpath"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wd"
)

const maxValue = int64(1)<<62 - 1

// kind of the winning candidate.
const (
	kindOne  = byte('1') // 1-respecting cut v↓ (Lemma 11)
	kindPair = byte('A') // union of two incomparable descendant sets (§4.1)
	kindDiff = byte('B') // difference of two nested descendant sets (App. A)
)

// provenance records where the best candidate was found, so the witness
// pass can rebuild exactly that phase.
type provenance struct {
	phase int
	kind  byte
	y, z  int32 // phase-local vertices: y = visited bough vertex (or the
	// 1-respect argmin); z = query target (neighbor / parent)
}

// Result is the outcome of TwoRespect.
type Result struct {
	// Value is the smallest cut value among cuts crossing at most two
	// edges of the spanning tree.
	Value int64
	// InCut marks one side of a cut achieving Value over the original
	// vertices; nil unless a witness was requested.
	InCut []bool
}

// TwoRespect finds the smallest cut of g that cuts at most two edges of
// the spanning tree given by the parent array (rooted anywhere). With
// wantWitness it also reconstructs the partition. Lemma 13: work
// O(m log³ n), depth O(log² n) per tree.
func TwoRespect(g *graph.Graph, parent []int32, wantWitness bool, pool *par.Pool, m *wd.Meter) (Result, error) {
	if g.N() < 2 {
		return Result{}, fmt.Errorf("respect: graph needs at least 2 vertices")
	}
	if len(parent) != g.N() {
		return Result{}, fmt.Errorf("respect: parent array length %d != n %d", len(parent), g.N())
	}
	best, prov, err := scan(g, parent, -1, nil, pool, m)
	if err != nil {
		return Result{}, err
	}
	res := Result{Value: best}
	if wantWitness {
		inCut, err := witness(g, parent, prov, pool, m)
		if err != nil {
			return Result{}, err
		}
		res.InCut = inCut
	}
	return res, nil
}

// phaseView is the state of one bough phase, handed to the witness pass.
type phaseView struct {
	g      *graph.Graph
	t      *tree.Tree
	c, rho []int64
	paths  [][]int32
	member []bool
	origOf []int32 // original vertex -> phase-local supernode
}

// phaseJob is the executable part of one bough phase: everything needed
// to run and combine the two Minimum Path batches.
type phaseJob struct {
	phase        int
	t            *tree.Tree
	c, rho       []int64
	passA, passB schedule
	// outcome
	best int64
	prov provenance
}

// run executes the phase's batches and records the phase-local minimum.
func (j *phaseJob) run(pool *par.Pool, m *wd.Meter) {
	structure := minpath.New(j.t, pool, m)
	j.best = maxValue
	resA := structure.RunBatch(j.c, j.passA.ops, pool, m)
	for _, tag := range j.passA.tags {
		if v := resA[tag.opIdx] + j.c[tag.y]; v < j.best {
			j.best, j.prov = v, provenance{phase: j.phase, kind: kindPair, y: tag.y, z: tag.z}
		}
	}
	resB := structure.RunBatch(j.c, j.passB.ops, pool, m)
	for _, tag := range j.passB.tags {
		if v := resB[tag.opIdx] - 4*j.rho[tag.y] - j.c[tag.y]; v < j.best {
			j.best, j.prov = v, provenance{phase: j.phase, kind: kindDiff, y: tag.y, z: tag.z}
		}
	}
}

// scan runs the bough-phase recursion (§4.3), returning the smallest
// candidate value and its provenance. By default phases execute one after
// another (each internally parallel), keeping memory at O(m); with
// parallelPhases the batches of every phase are first generated along the
// contraction chain and then all executed concurrently — the paper's
// §4.3 step 3-4 schedule — at O(m log n) memory. If stopAtPhase >= 0,
// scan instead stops before executing batches of that phase and stores
// the phase state in *out (witness rebuild mode).
func scan(g *graph.Graph, parent []int32, stopAtPhase int, out *phaseView, pool *par.Pool, m *wd.Meter) (int64, provenance, error) {
	return scanMode(context.Background(), g, parent, stopAtPhase, out, false, pool, m, nil, trace.SpanRef{})
}

func scanMode(ctx context.Context, g *graph.Graph, parent []int32, stopAtPhase int, out *phaseView, parallelPhases bool, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (int64, provenance, error) {
	t, err := tree.FromParentParallel(parent, pool, m)
	if err != nil {
		return 0, provenance{}, fmt.Errorf("respect: invalid spanning tree: %v", err)
	}
	curG, curT := g, t
	origOf := make([]int32, g.N())
	pool.For(g.N(), func(i int) { origOf[i] = int32(i) })
	best := maxValue
	var prov provenance
	var deferred []*phaseJob
	for phase := 0; ; phase++ {
		// Cooperative cancellation between bough phases: each phase is a
		// bounded batch of work, so this keeps cancellation latency at one
		// phase without any locking on the hot path.
		if err := ctx.Err(); err != nil {
			return 0, provenance{}, fmt.Errorf("respect: scan canceled: %w", err)
		}
		if phase > int(wd.CeilLog2(g.N()))+2 {
			return 0, provenance{}, fmt.Errorf("respect: phase bound exceeded")
		}
		psp := sp.Child("bough-phase").AttrInt("phase", int64(phase))
		l := lca.New(curT, pool, m)
		c, rho := CutValues(curG, curT, l, pool, m)
		paths, member := decomp.Boughs(curT, pool, m, sink, psp)
		if stopAtPhase == phase {
			psp.End()
			*out = phaseView{g: curG, t: curT, c: c, rho: rho, paths: paths, member: member, origOf: origOf}
			return best, prov, nil
		}
		// 1-respecting candidate.
		if v1, arg := minOneRespect(c, curT); arg >= 0 && v1 < best {
			best, prov = v1, provenance{phase: phase, kind: kindOne, y: arg}
		}
		// 2-respecting candidates via the Minimum Path batches.
		adj := curG.BuildAdjOn(pool)
		passA, passB := buildSchedules(curG, curT, adj, paths, pool, m)
		job := &phaseJob{phase: phase, t: curT, c: c, rho: rho, passA: passA, passB: passB}
		if parallelPhases {
			deferred = append(deferred, job)
		} else {
			job.run(pool, m)
			if job.best < best {
				best, prov = job.best, job.prov
			}
			// A completed bough phase is both a progress milestone and the
			// cancellation seam the next loop iteration checks.
			sink.BoughPhaseDone()
		}
		// Contract the boughs and recurse.
		ctr := contractBoughs(curG, curT, member, paths, pool, m)
		if ctr == nil {
			psp.End()
			break
		}
		next := make([]int32, len(origOf))
		pool.For(len(origOf), func(i int) { next[i] = ctr.toNew[origOf[i]] })
		m.Add(int64(len(origOf)), 1)
		origOf = next
		curG, curT = ctr.g, ctr.t
		psp.End()
	}
	if parallelPhases && len(deferred) > 0 {
		locals := make([]*wd.Meter, len(deferred))
		pool.ForGrain(len(deferred), 1, func(i int) {
			locals[i] = new(wd.Meter)
			deferred[i].run(pool, locals[i])
		})
		m.Par(locals...)
		for _, job := range deferred {
			if job.best < best {
				best, prov = job.best, job.prov
			}
		}
	}
	if best >= maxValue {
		return 0, provenance{}, fmt.Errorf("respect: no cut candidate found")
	}
	return best, prov, nil
}

// ScanParallelPhases is Scan with the paper-faithful concurrent phase
// execution (§4.3): lower depth, O(m log n) memory. The solver keeps the
// sequential schedule; this one exists to measure the depth trade
// (paperbench -exp ablation).
func ScanParallelPhases(g *graph.Graph, parent []int32, pool *par.Pool, m *wd.Meter) (Finding, error) {
	if g.N() < 2 {
		return Finding{}, fmt.Errorf("respect: graph needs at least 2 vertices")
	}
	v, p, err := scanMode(context.Background(), g, parent, -1, nil, true, pool, m, nil, trace.SpanRef{})
	if err != nil {
		return Finding{}, err
	}
	return Finding{Value: v, prov: p}, nil
}

// ScanContext is Scan with cooperative cancellation and live
// instrumentation: ctx is checked between bough phases, so cancellation
// latency is bounded by a single phase; sink (nil OK) is advanced at
// exactly those seams; and sp (zero OK) gets one child span per bough
// phase.
func ScanContext(ctx context.Context, g *graph.Graph, parent []int32, pool *par.Pool, m *wd.Meter, sink *progress.Sink, sp trace.SpanRef) (Finding, error) {
	if g.N() < 2 {
		return Finding{}, fmt.Errorf("respect: graph needs at least 2 vertices")
	}
	v, p, err := scanMode(ctx, g, parent, -1, nil, false, pool, m, sink, sp)
	if err != nil {
		return Finding{}, err
	}
	return Finding{Value: v, prov: p}, nil
}
