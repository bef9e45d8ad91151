package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded-width parallel executor: the concrete machine the
// paper's abstract fork-join primitives (§1.1.2) run on. A Pool of width w
// owns w-1 long-lived worker goroutines; the goroutine invoking a
// primitive is the w-th lane. Primitives never spawn goroutines — forked
// branches are pushed onto per-worker work-stealing deques, and a joining
// caller helps execute queued branches instead of blocking, so nested
// fork-join (parallel merge sort, concurrent tree scans) cannot deadlock
// and total parallelism stays capped at the pool width no matter how
// deeply primitives nest.
//
// Scheduling: each worker lane pushes and pops its own bounded LIFO deque
// (depth-first locality for divide-and-conquer cascades); idle lanes steal
// FIFO from victims (breadth-first, taking the oldest and typically
// largest branch); pushes that overflow a full deque spill to a shared
// unbounded queue rather than degrading to inline execution, so a
// saturated burst parallelizes instead of serializing into the forking
// caller.
//
// Width and schedule never affect results: every primitive computes the
// same output at every width and under any steal interleaving (chunked
// reductions use exact integer arithmetic, merges and sorts are stable),
// so callers may treat the width purely as a resource knob.
//
// A nil *Pool is valid everywhere a pool is accepted and means the shared
// process-wide default pool (width GOMAXPROCS). Pools are safe for concurrent
// use by multiple goroutines: each concurrent caller adds one lane and
// helps run queued branches while it joins, so C callers share one pool on
// at most C + width − 1 goroutines, and a lone caller gets every lane.
type Pool struct {
	width     int
	isDefault bool // the shared default pool; Close is a no-op on it
	lanes     []*lane
	stop      chan struct{}
	closed    atomic.Bool
	once      sync.Once // guards shutdown

	// wake is a wakeup semaphore for parked workers and helping waiters:
	// every push sends one non-blocking token. Capacity equals the number
	// of goroutines that can park (the workers plus slack for waiters), so
	// a dropped token implies enough pending tokens to wake everyone.
	wake chan struct{}

	// overflow is the shared FIFO spill for pushes that found their target
	// deque full. It is unbounded: admission control happens above the
	// pool (the scheduler's queue caps), not by silently serializing
	// forks.
	overflow struct {
		mu   sync.Mutex
		head int
		q    []task
	}

	// rr rotates push targets for callers that do not own a lane, and
	// steal sweep starting points.
	rr atomic.Uint32

	stats poolStats

	// cut holds the sequential cutoffs: fixedCutoffs, set by NewPool.
	// Only this package's tests lower them, to force forks on small
	// inputs.
	cut cutoffs

	// arena recycles the typed scratch slices of the primitives and the
	// solver inner loops (see Arena); joins and chunk loops are recycled
	// alongside so steady-state fork-join allocates nothing per branch.
	arena     Arena
	joinPool  sync.Pool
	chunkPool sync.Pool
}

// poolStats aggregates the pool's scheduling counters. All atomics; reads
// through Stats are racy snapshots, which is fine for metrics.
type poolStats struct {
	steals         atomic.Int64
	localPushes    atomic.Int64
	sharedPushes   atomic.Int64
	overflowPushes atomic.Int64
	inlineRuns     atomic.Int64
}

// Stats is a point-in-time snapshot of a pool's scheduling and arena
// counters, surfaced as mincutd_pool_* metrics by the service.
type Stats struct {
	// Steals counts tasks taken FIFO from another lane's deque (by idle
	// workers or helping waiters). LocalPushes are forks that landed on
	// the forking lane's own deque; SharedPushes landed on another lane's
	// deque (forks from goroutines that own no lane); OverflowPushes
	// spilled to the shared queue because the target deque was full.
	Steals, LocalPushes, SharedPushes, OverflowPushes int64
	// InlineRuns counts forks that degraded to inline execution in the
	// caller. On an open pool of width > 1 this is always 0 — the old
	// single-queue executor folded saturated forks into the caller, the
	// deque executor never does; only a closed pool runs branches inline.
	InlineRuns int64
	// ArenaHits and ArenaMisses count scratch-slice recycles vs fresh
	// allocations in the pool's arena.
	ArenaHits, ArenaMisses int64
}

// Stats snapshots the pool's counters (the default pool's for a nil
// receiver).
func (p *Pool) Stats() Stats {
	p = p.get()
	return Stats{
		Steals:         p.stats.steals.Load(),
		LocalPushes:    p.stats.localPushes.Load(),
		SharedPushes:   p.stats.sharedPushes.Load(),
		OverflowPushes: p.stats.overflowPushes.Load(),
		InlineRuns:     p.stats.inlineRuns.Load(),
		ArenaHits:      p.arena.hits.Load(),
		ArenaMisses:    p.arena.misses.Load(),
	}
}

// NewPool returns a Pool of the given width. Width <= 0 means
// runtime.GOMAXPROCS(0). A width-1 pool runs every primitive sequentially
// in the caller's goroutine and owns no workers. Call Close when done to
// release the workers; a finalizer is deliberately not used, but leaked
// pools only cost idle goroutines.
func NewPool(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		width: width,
		stop:  make(chan struct{}),
		cut:   fixedCutoffs,
	}
	if width > 1 {
		p.wake = make(chan struct{}, 2*width)
		p.lanes = make([]*lane, width-1)
		for i := range p.lanes {
			p.lanes[i] = &lane{}
		}
		for i := range p.lanes {
			go p.worker(p.lanes[i])
		}
	}
	return p
}

// defaultPool is the shared executor behind nil *Pool receivers: one set
// of workers for every caller that does not pick a pool. The atomic
// pointer (with defaultMu serializing replacement) keeps Default and Close
// race-free.
var (
	defaultMu   sync.Mutex
	defaultPool atomic.Pointer[Pool]
)

// Default returns the shared process-wide pool, sized to the current
// GOMAXPROCS. If GOMAXPROCS has changed since the pool was created (test
// harnesses sweeping -cpu, operators resizing a live process), the
// default is transparently replaced by one of the new width and the old
// one's workers are released — primitives still in flight on the old pool
// finish correctly (degrading to sequential execution). Closing the
// default pool directly is a no-op.
func Default() *Pool {
	want := runtime.GOMAXPROCS(0)
	if p := defaultPool.Load(); p != nil && p.width == want {
		return p
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	p := defaultPool.Load()
	if p != nil && p.width == want {
		return p
	}
	np := NewPool(want)
	np.isDefault = true
	defaultPool.Store(np)
	if p != nil {
		p.shutdown()
	}
	return np
}

// get resolves the nil-receiver convention.
func (p *Pool) get() *Pool {
	if p == nil {
		return Default()
	}
	return p
}

// Width reports the pool's parallelism (the default pool's width for a nil
// receiver).
func (p *Pool) Width() int {
	return p.get().width
}

// Close stops the pool's workers. Primitives invoked after Close (or
// racing with it) still complete correctly — forks fail over to inline
// execution — they just run sequentially. Closing the shared default pool
// is a no-op. Close is idempotent.
func (p *Pool) Close() {
	if p == nil || p.isDefault {
		return
	}
	p.shutdown()
}

// shutdown releases the workers unconditionally (Default uses it to
// retire a superseded default pool).
func (p *Pool) shutdown() {
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.stop)
	})
}

// worker owns lane l: pop the own deque LIFO, otherwise find work
// elsewhere (overflow FIFO, then steal FIFO from victims), otherwise park
// until a push wakes it or the pool closes.
func (p *Pool) worker(l *lane) {
	for {
		if t, ok := p.findTask(l); ok {
			p.exec(l, t)
			continue
		}
		select {
		case <-p.wake:
		case <-p.stop:
			return
		}
	}
}

// findTask locates the next task for lane l (nil for a helping waiter
// that owns no lane): own deque bottom first, then the shared overflow
// queue, then a FIFO steal sweep over the other lanes.
func (p *Pool) findTask(l *lane) (task, bool) {
	if l != nil {
		if t, ok := l.dq.popBottom(); ok {
			return t, true
		}
	}
	if t, ok := p.takeOverflow(); ok {
		return t, true
	}
	n := len(p.lanes)
	if n == 0 {
		return task{}, false
	}
	start := int(p.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		v := p.lanes[(start+i)%n]
		if v == l {
			continue
		}
		if t, ok := v.dq.stealTop(); ok {
			p.stats.steals.Add(1)
			return t, true
		}
	}
	return task{}, false
}

// takeOverflow pops the oldest spilled task.
func (p *Pool) takeOverflow() (task, bool) {
	o := &p.overflow
	o.mu.Lock()
	if o.head == len(o.q) {
		if o.head != 0 {
			o.q = o.q[:0]
			o.head = 0
		}
		o.mu.Unlock()
		return task{}, false
	}
	t := o.q[o.head]
	o.q[o.head] = task{}
	o.head++
	o.mu.Unlock()
	return t, true
}

// exec runs one task on lane l (nil for helping waiters) and signals its
// join.
func (p *Pool) exec(l *lane, t task) {
	switch {
	case t.cs != nil:
		t.cs.drain()
	case t.lf != nil:
		t.lf(l)
	default:
		t.f()
	}
	if t.j != nil {
		t.j.done()
	}
}

// push enqueues t: onto l's own deque when the pusher owns a lane, else
// onto a rotating victim's deque, spilling to the overflow queue when the
// target is full — never failing. One wake token per push keeps parked
// lanes live.
func (p *Pool) push(l *lane, t task) {
	switch {
	case l != nil && l.dq.pushBottom(t):
		p.stats.localPushes.Add(1)
	case p.lanes[int(p.rr.Add(1))%len(p.lanes)].dq.pushBottom(t):
		p.stats.sharedPushes.Add(1)
	default:
		o := &p.overflow
		o.mu.Lock()
		o.q = append(o.q, t)
		o.mu.Unlock()
		p.stats.overflowPushes.Add(1)
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// join tracks a set of forked branches. pending counts branches not yet
// finished; note (capacity 1) is poked whenever pending drops to zero.
// A buffered notification — instead of a closed channel — makes transient
// zeros safe: a branch may finish before the next one is even forked, and
// the waiter simply re-checks pending after every wake-up. Joins are
// recycled through the pool's joinPool; a stale note token from a
// previous use at worst causes one extra pending check.
type join struct {
	pending atomic.Int32
	note    chan struct{}
}

func (j *join) done() {
	if j.pending.Add(-1) == 0 {
		select {
		case j.note <- struct{}{}:
		default:
		}
	}
}

func (p *Pool) getJoin() *join {
	if v := p.joinPool.Get(); v != nil {
		return v.(*join)
	}
	return &join{note: make(chan struct{}, 1)}
}

func (p *Pool) putJoin(j *join) {
	p.joinPool.Put(j)
}

// fork hands t to the pool, registering it on j. It reports false — and
// runs nothing — only when the pool has no workers (width 1) or is
// closed, in which case the caller must run the branch inline itself.
// Saturation never fails a fork: full deques spill to the overflow queue.
func (p *Pool) fork(l *lane, j *join, t task) bool {
	if p.lanes == nil || p.closed.Load() {
		if p.lanes != nil {
			p.stats.inlineRuns.Add(1)
		}
		return false
	}
	j.pending.Add(1)
	t.j = j
	p.push(l, t)
	return true
}

// wait blocks until every branch forked on j has finished. While waiting
// it helps execute queued tasks (its own branches or anyone else's),
// which both speeds completion and guarantees progress: a branch can only
// be "stuck" in a deque or the overflow queue, and everyone who waits
// sweeps all of them. A stale note (from a transient zero or a recycled
// join) just causes one extra pending check.
func (p *Pool) wait(l *lane, j *join) {
	for j.pending.Load() != 0 {
		if t, ok := p.findTask(l); ok {
			p.exec(l, t)
			continue
		}
		select {
		case <-j.note:
		case <-p.wake:
		}
	}
}

// chunkRun is a shared chunk loop: the caller and its forked helper
// branches all claim chunk indices from next until the range is
// exhausted. Recycled via chunkPool so chunked primitives allocate no
// per-call coordination state.
type chunkRun struct {
	next   atomic.Int64
	chunks int
	size   int
	n      int
	f      func(lo, hi int)
}

func (cr *chunkRun) drain() {
	for {
		c := int(cr.next.Add(1)) - 1
		if c >= cr.chunks {
			return
		}
		lo := c * cr.size
		hi := lo + cr.size
		if hi > cr.n {
			hi = cr.n
		}
		if lo < hi {
			cr.f(lo, hi)
		}
	}
}

func (p *Pool) getChunkRun() *chunkRun {
	if v := p.chunkPool.Get(); v != nil {
		return v.(*chunkRun)
	}
	return &chunkRun{}
}

func (p *Pool) putChunkRun(cr *chunkRun) {
	cr.f = nil
	p.chunkPool.Put(cr)
}

// do2Lane is the lane-aware binary fork-join behind the recursive
// primitives: branch b is pushed onto l's own deque (LIFO, so the lane
// that executes it — owner or thief — continues the cascade locally)
// while the caller runs a.
func (p *Pool) do2Lane(l *lane, a, b func(*lane)) {
	if p.lanes == nil || p.closed.Load() {
		a(l)
		b(l)
		return
	}
	j := p.getJoin()
	if !p.fork(l, j, task{lf: b}) {
		p.putJoin(j)
		a(l)
		b(l)
		return
	}
	a(l)
	p.wait(l, j)
	p.putJoin(j)
}

// maxChunks is the ceiling on chunk counts used by the chunked primitives
// (loops, scans, reductions): enough slack for load balancing without
// losing the near-sequential constant factors.
func (p *Pool) maxChunks() int {
	return 4 * p.width
}

// numChunks picks the chunk count for an n-element chunked primitive.
func (p *Pool) numChunks(n int) int {
	chunks := p.maxChunks()
	if byGrain := (n + Grain - 1) / Grain; chunks > byGrain {
		chunks = byGrain
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// getScratch borrows a []int64 of length n from the pool's arena;
// putScratch returns it. Contents are unspecified — every chunked
// primitive writes each cell before reading it.
func (p *Pool) getScratch(n int) (*[]int64, []int64) {
	sp := p.arena.Int64(n)
	return sp, *sp
}

func (p *Pool) putScratch(sp *[]int64) {
	p.arena.PutInt64(sp)
}
