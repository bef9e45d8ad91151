package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded-width parallel executor: the concrete machine the
// paper's abstract fork-join primitives (§1.1.2) run on. A Pool of width w
// owns w-1 long-lived worker goroutines; the goroutine invoking a
// primitive is the w-th lane. Primitives never spawn goroutines: a forked
// branch goes onto the pool's one FIFO queue, and a joining caller helps
// run queued branches instead of blocking, so nested fork-join (parallel
// merge sort, concurrent tree scans) cannot deadlock and total
// parallelism stays capped at the pool width no matter how deeply
// primitives nest.
//
// Scheduling: workers and joining callers pop the oldest queued branch.
// The queue is unbounded, so a saturated burst queues for the workers
// instead of degrading to inline execution in the forking caller. One
// queue serves because solves fork little, and from outside the workers:
// on width-2 executors over the cutbench graph shapes, an
// andersonblelloch solve forks once per distinct packed tree (core forks
// each tree's search from the packing loop), a stoerwagner solve never,
// and a geissmann solve hundreds to thousands of times (230–4,872 on
// seeds 1–4), and only geissmann's nested forks are made by workers, so
// per-worker queues would stay nearly empty.
//
// Width and schedule never affect results: every primitive computes the
// same output at every width and under any interleaving (chunked
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
	stop      chan struct{}
	closed    atomic.Bool
	once      sync.Once // guards shutdown

	// wake is a wakeup semaphore for parked workers and helping waiters:
	// every fork sends one non-blocking token. Capacity equals the number
	// of goroutines that can park (the workers plus slack for waiters), so
	// a dropped token implies enough pending tokens to wake everyone.
	wake chan struct{}

	// queue holds the forked branches no goroutine has started yet.
	queue queue

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
	forks      atomic.Int64
	steals     atomic.Int64
	inlineRuns atomic.Int64
}

// Stats is a point-in-time snapshot of a pool's scheduling and arena
// counters, surfaced as mincutd_pool_* metrics by the service.
type Stats struct {
	// Forks counts branches handed to the queue. Steals counts the
	// forked branches that a goroutine other than their forker ran: a
	// worker, or a caller joining a different fork. A branch its forker
	// takes back while joining it is not a steal. (A caller that runs
	// one of its own outer forks while joining an inner one counts a
	// steal too: the pool does not track which goroutine forked what.)
	Forks, Steals int64
	// InlineRuns counts forks that degraded to inline execution in the
	// caller. On an open pool of width > 1 this is always 0: saturation
	// queues, it never runs a branch inline; only a closed pool does.
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
		Forks:       p.stats.forks.Load(),
		Steals:      p.stats.steals.Load(),
		InlineRuns:  p.stats.inlineRuns.Load(),
		ArenaHits:   p.arena.hits.Load(),
		ArenaMisses: p.arena.misses.Load(),
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
		for i := 1; i < width; i++ {
			go p.worker()
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

// worker runs queued branches, oldest first, and parks until a fork wakes
// it or the pool closes. Every branch a worker runs is a steal: a worker
// forks only inside a branch and joins those forks before the branch
// returns, so nothing left in the queue is its own.
func (p *Pool) worker() {
	for {
		if t, ok := p.queue.pop(); ok {
			p.stats.steals.Add(1)
			p.exec(t)
			continue
		}
		select {
		case <-p.wake:
		case <-p.stop:
			return
		}
	}
}

// task is one forked branch, stored by value in the queue so that a fork
// allocates nothing beyond what the caller's own closure captured.
// Exactly one of f and cs is set: f is a plain branch, cs a shared chunk
// loop whose branch claims chunk indices until the loop is exhausted. j
// is the join the branch reports to when it returns.
type task struct {
	f  func()
	cs *chunkRun
	j  *join
}

// exec runs one task and signals its join.
func (p *Pool) exec(t task) {
	if t.cs != nil {
		t.cs.drain()
	} else {
		t.f()
	}
	t.j.done()
}

// queue is the pool's FIFO of forked branches: a ring buffer that doubles
// when full, so it never refuses a fork and its memory follows the
// largest backlog. Admission control happens above the pool (the
// scheduler's queue caps), not by serializing forks.
type queue struct {
	mu   sync.Mutex
	buf  []task // len is 0 or a power of two
	head int    // index of the oldest task
	n    int    // number of queued tasks
}

func (q *queue) push(t task) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		buf := make([]task, max(2*len(q.buf), 64))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
	q.mu.Unlock()
}

// pop removes the oldest task.
func (q *queue) pop() (task, bool) {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return task{}, false
	}
	t := q.buf[q.head]
	q.buf[q.head] = task{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.mu.Unlock()
	return t, true
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

// fork queues t, registering it on j, and sends one wake token. It
// reports false — and runs nothing — only when the pool has no workers
// (width 1) or is closed, in which case the caller must run the branch
// inline itself. Saturation never fails a fork: the queue grows.
func (p *Pool) fork(j *join, t task) bool {
	if p.width == 1 || p.closed.Load() {
		if p.width > 1 {
			p.stats.inlineRuns.Add(1)
		}
		return false
	}
	j.pending.Add(1)
	t.j = j
	p.queue.push(t)
	p.stats.forks.Add(1)
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return true
}

// wait blocks until every branch forked on j has finished. While waiting
// it helps run queued tasks (its own branches or anyone else's), which
// both speeds completion and guarantees progress: a branch can only be
// "stuck" in the queue, and everyone who waits drains it. A stale note
// (from a transient zero or a recycled join) just causes one extra
// pending check.
func (p *Pool) wait(j *join) {
	for j.pending.Load() != 0 {
		if t, ok := p.queue.pop(); ok {
			if t.j != j {
				p.stats.steals.Add(1)
			}
			p.exec(t)
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
