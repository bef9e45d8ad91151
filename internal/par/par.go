// Package par implements the fork-join parallel primitives the paper's
// algorithms are written in terms of (§1.1.2, §3.1): parallel loops,
// reductions, all-prefix-sums (scans), segmented broadcasts, parallel
// merging of sorted sequences, and parallel stable sorting.
//
// Go has no fork-join runtime, so the primitives emulate the Work-Depth
// model on an explicit executor, Pool: a persistent bounded-width worker
// set that runs forked branches from one FIFO queue. Every primitive has one
// way to be called: the non-generic ones are *Pool methods, and the generic
// ones are the package functions MergeOn and SortStableOn, which take the
// pool as their first argument (Go has no generic methods). A nil *Pool
// means the shared default pool of width GOMAXPROCS.
//
// Every primitive runs its sequential form below a fixed per-primitive
// size cutoff, which keeps constant factors competitive with hand-written
// loops while preserving the parallel structure that the paper's depth
// bounds rely on. Cutoffs, like widths, never change a result: every
// primitive returns identical output at every pool width.
package par

// Grain is the default smallest amount of per-lane sequential work, and
// the anchor for the per-primitive cutoffs (see cutoffs). Loops over fewer
// elements run sequentially: handing a branch to a worker and joining it
// costs on the order of microseconds, so data-parallel loops only pay off
// once each lane gets several thousand elements. Task parallelism over
// few-but-large units (tree scans, segment batches) uses ForGrain with an
// explicit small grain instead.
const Grain = 8192

// cutoffs holds the per-primitive sequential cutoffs: a primitive invoked
// on at most its cutoff's number of elements runs sequentially in the
// caller. The values differ per primitive because the work per element
// does: a scan makes two cheap passes, a sort a comparison cascade.
type cutoffs struct {
	forGrain int // per-chunk element count of For loops
	scan     int // ExclusiveSum, InclusiveSum, SegmentedBroadcast
	reduce   int // MinInt64
	merge    int // MergeOn, by total elements across both inputs
	sort     int // SortStableOn
}

// fixedCutoffs are the cutoffs every pool runs with.
var fixedCutoffs = cutoffs{
	forGrain: Grain,
	scan:     4 * Grain,
	reduce:   Grain,
	merge:    4 * Grain,
	sort:     8 * Grain,
}

// For runs f(i) for every i in [0, n) with no ordering guarantees.
func (p *Pool) For(n int, f func(i int)) {
	p = p.get()
	p.ForGrain(n, p.cut.forGrain, f)
}

// ForGrain is For with an explicit grain size.
func (p *Pool) ForGrain(n, grain int, f func(i int)) {
	p = p.get()
	// Sequential fast path before the wrapper closure exists, so loops
	// below the cutoff (and any loop on a width-1 pool) allocate nothing.
	if p.width == 1 || p.closed.Load() || n <= grain {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	p.ForChunk(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForChunk partitions [0, n) into contiguous chunks of at least grain
// elements and runs f(lo, hi) on the chunks in parallel. The caller and
// up to width-1 helper branches claim chunks from a shared atomic cursor,
// so chunk-to-lane assignment is dynamic (load-balanced) while chunk
// boundaries — and therefore results — are fixed by n and grain alone.
func (p *Pool) ForChunk(n, grain int, f func(lo, hi int)) {
	p = p.get()
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p.width == 1 || p.closed.Load() || n <= grain {
		f(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if mx := p.maxChunks(); chunks > mx {
		chunks = mx
	}
	if chunks < 2 {
		f(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	cr := p.getChunkRun()
	cr.next.Store(0)
	cr.chunks, cr.size, cr.n, cr.f = chunks, size, n, f
	helpers := chunks - 1
	if mw := p.width - 1; helpers > mw {
		helpers = mw
	}
	j := p.getJoin()
	for i := 0; i < helpers; i++ {
		if !p.fork(j, task{cs: cr}) {
			break // pool closed mid-call; the caller drains alone
		}
	}
	cr.drain()
	p.wait(j)
	p.putJoin(j)
	p.putChunkRun(cr)
}

// Do runs the given functions as parallel fork-join branches on the pool:
// it forks all but the first onto a Group, runs the first itself, and
// joins.
func (p *Pool) Do(fs ...func()) {
	if len(fs) == 0 {
		return
	}
	g := p.Group()
	for _, f := range fs[1:] {
		g.Go(f)
	}
	fs[0]()
	g.Wait()
}

// Group is a fork-join whose branches are forked one at a time, as the
// forker learns of them: Go queues a branch (at most width run at once,
// zero goroutines spawned), and Wait joins every branch forked so far,
// helping run queued branches meanwhile, and leaves the group empty. A
// branch runs inline in Go only when the pool is sequential or closed —
// saturation queues instead of serializing. Go and Wait are called by
// one goroutine.
type Group struct {
	p *Pool
	j *join // nil until the first branch is forked
}

// Group returns an empty fork-join group on the pool.
func (p *Pool) Group() Group {
	return Group{p: p.get()}
}

// Go forks f as a branch of the group.
func (g *Group) Go(f func()) {
	p := g.p
	if p.width > 1 && g.j == nil {
		g.j = p.getJoin()
	}
	if p.width == 1 || !p.fork(g.j, task{f: f}) {
		f()
	}
}

// Wait returns once every branch forked on the group has finished.
func (g *Group) Wait() {
	if g.j != nil {
		g.p.wait(g.j)
		g.p.putJoin(g.j)
		g.j = nil
	}
}

// MinInt64 returns the minimum element and its index (the smallest index
// attaining the minimum). It panics on an empty slice.
func (p *Pool) MinInt64(xs []int64) (int64, int) {
	p = p.get()
	if len(xs) == 0 {
		panic("par: MinInt64 of empty slice")
	}
	n := len(xs)
	if p.width == 1 || n <= p.cut.reduce {
		return seqMin(xs, 0)
	}
	chunks := p.numChunks(n)
	vp, vals := p.getScratch(chunks)
	ip, idxs := p.getScratch(chunks)
	defer p.putScratch(vp)
	defer p.putScratch(ip)
	size := (n + chunks - 1) / chunks
	p.ForChunk(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			v, i := seqMin(xs[lo:hi], lo)
			vals[c], idxs[c] = v, int64(i)
		}
	})
	best, bi := vals[0], idxs[0]
	for c := 1; c < chunks; c++ {
		if vals[c] < best {
			best, bi = vals[c], idxs[c]
		}
	}
	return best, int(bi)
}

func seqMin(xs []int64, base int) (int64, int) {
	best, bi := xs[0], base
	for i, x := range xs[1:] {
		if x < best {
			best, bi = x, base+i+1
		}
	}
	return best, bi
}
