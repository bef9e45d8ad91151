// Package sched runs minimum-cut jobs on a bounded worker pool. It is the
// service layer's concurrency core: requests become Jobs, identical
// requests coalesce into one solver run (singleflight keyed by graph hash,
// seed, and options), finished results are cached, every job carries a
// context so callers can cancel or time out, and Shutdown drains in-flight
// work before returning.
//
// Jobs are classed (interactive / batch / background) and dispatched by
// weighted fairness: each class owns a queue (smallest-graph-first within
// the class, with periodic oldest-first aging pops), and workers pick the
// next job by deficit round robin over the configured class weights, so
// no class can starve another — see class.go. Per-class queue caps and a
// global queue bound reject excess load at Submit time with typed errors
// the API maps to 429s.
//
// Every job carries a live progress sink (parcut.Progress) threaded into
// the solver and an event log: lifecycle transitions, solver phase
// changes, and throttled counter updates, streamed to clients as NDJSON
// and aggregated into the solve-phase-seconds metrics.
//
// The machine's cores are partitioned across the pool: each worker owns a
// long-lived parcut.Executor of width Config.SolveParallelism (default
// ⌈GOMAXPROCS/Workers⌉) that all its solves run on, so a saturated
// scheduler uses exactly Workers × SolveParallelism lanes instead of
// oversubscribing the box. Executor width never affects results.
//
// Boosted solves fan out: a Boost=k request is decomposed into up to
// MaxFanout sub-jobs covering disjoint run ranges (parcut.BoostSeed makes
// the chunking exact), scheduled across the pool like any other job and
// merged by a deterministic reduction — smallest Value, ties to the lowest
// run index — so the merged result is bit-for-bit the sequential Boost
// loop's. Sub-jobs are keyed like ordinary requests, so overlapping boost
// requests and plain single-seed requests share runs through the same
// singleflight cache, and canceling the parent cancels sub-jobs nobody
// else is waiting on.
package sched

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	parcut "repro"
	"repro/internal/engine"
	"repro/internal/trace"
)

// ErrDraining is returned by Submit once Shutdown has begun.
var ErrDraining = errors.New("sched: scheduler is draining")

// ErrQueueFull is returned by Submit when the global queue bound
// (Config.MaxQueue) is reached.
var ErrQueueFull = errors.New("sched: queue full")

// ErrClassQueueFull is returned by Submit when the submitting class's
// queue cap (Config.ClassQueueCaps) is reached. Other classes may still
// have room — the caller's load, not the service, is what is saturated.
var ErrClassQueueFull = errors.New("sched: class queue cap reached")

// ErrUnknownEngine is returned by Submit for an engine name it cannot
// schedule: one that is not registered, or the unresolved "auto"
// pseudo-engine (callers resolve auto against the graph's size via
// engine.Resolve before submitting, so cache keys always name a concrete
// engine and an auto request shares its cache entry with the equivalent
// explicit one).
var ErrUnknownEngine = errors.New("sched: unknown engine")

// SolveOptions is the comparable subset of parcut.Options that, together
// with the graph ID, keys the result cache. Submit normalizes it so
// equivalent requests share one key: Boost 0 and 1 both mean a single
// run, the empty Engine means the default, and options the chosen engine
// cannot use are zeroed — a non-boost-decomposable engine runs once
// whatever Boost says, and a seed-insensitive (exact) engine returns the
// same result for every seed, so all seeds map to one cache entry.
// Without Engine in the key, two engines' results for the same graph and
// seed would collide in the cache.
type SolveOptions struct {
	Seed          int64
	WantPartition bool
	Boost         int
	// Engine names the solver backend (engine.Names lists the valid
	// values; empty means engine.Default). It is part of the cache key.
	Engine string
}

func (o SolveOptions) normalized() SolveOptions {
	if o.Boost < 1 {
		o.Boost = 1
	}
	if o.Engine == "" {
		o.Engine = engine.Default
	}
	if eng, ok := engine.Lookup(o.Engine); ok {
		caps := eng.Caps()
		if !caps.BoostDecomposable {
			o.Boost = 1
		}
		if !caps.Seeded {
			o.Seed = 0
		}
	}
	return o
}

func (o SolveOptions) parcut() parcut.Options {
	return parcut.Options{
		Engine:        o.Engine,
		Seed:          o.Seed,
		WantPartition: o.WantPartition,
		Boost:         o.Boost,
	}
}

// Key identifies a solve request for coalescing and caching.
type Key struct {
	GraphID string
	Opt     SolveOptions
}

// State is a job's lifecycle stage.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// fanout is the bookkeeping of a decomposed boost solve: the parent job
// waits (off-worker) for its children and merges their results. children
// is immutable after construction.
type fanout struct {
	children []*Job
}

// Job is one scheduled (possibly shared) solver run, or the parent of a
// boost fan-out. All mutable fields are guarded by the owning scheduler's
// mutex; Done is closed exactly once when the job reaches a terminal
// state.
type Job struct {
	id    string
	key   Key
	g     *parcut.Graph
	owner *Scheduler // the scheduler that created the job; Handle.Wait needs it

	class    Class
	prio     int           // graph edge count; smaller solves first within a class
	seq      uint64        // FIFO tiebreak
	heapIdx  int           // index in its class queue heap; -1 once popped or removed
	fifoElem *list.Element // position in its class's arrival FIFO (aging); nil once dequeued

	ctx    context.Context
	cancel context.CancelCauseFunc

	waiters  int
	detached bool    // submitted without a waiter; never auto-canceled
	group    *fanout // non-nil for boost fan-out parents

	// prog is the live progress sink threaded into the solver; its hook
	// feeds the event log and the phase-seconds metrics.
	prog *parcut.Progress

	// Tracing (all nil/zero when the scheduler has no trace ring). rec
	// publishes the job's span tree when its last holder releases it; the
	// scheduler's own hold is released in finishPublish. rootSp and
	// queueSp are written once at creation and immutable afterwards.
	rec     *trace.Recorder
	rootSp  trace.SpanRef
	queueSp trace.SpanRef
	// metricClass is the class rank frozen at dispatch (creation rank
	// until then): the label the solver-side metric hooks use, so they
	// never race with escalation's writes to class. Written under s.mu
	// before the solve starts; read by the solver hooks afterwards.
	metricClass int
	// engineIdx is the engine's rank in the metric label space, fixed at
	// creation (the engine of a job never changes), so solver hooks read
	// it without any lock.
	engineIdx int

	state       State
	res         parcut.Result
	err         error
	created     time.Time
	dispatched  time.Time // when a worker picked the job up
	dispatchSeq uint64    // global dispatch order (0 = never dispatched)
	finished    time.Time
	histBytes   int64 // memory charged against HistoryBytes at publish

	// Event log, guarded by evMu (never by the scheduler mutex: the
	// solver hook appends while holding only evMu, so progress updates
	// cannot contend with Submit/Wait traffic). evWake is closed and
	// replaced on every append.
	evMu       sync.Mutex
	events     []Event
	evWake     chan struct{}
	evPhase    string
	evPhaseAt  time.Time
	evLastProg time.Time
	// Per-job phase wall time (evMu-guarded, same writers as evPhaseAt):
	// the slow-solve log reads these to say where a slow job's time went.
	packNanos     int64
	scanNanos     int64
	contractNanos int64

	done chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress returns a live snapshot of the job's solver counters. For a
// fan-out parent it aggregates the children's sinks (phase "fanout").
// Safe to call at any time; purely atomic reads.
func (j *Job) Progress() parcut.ProgressSnapshot {
	if j.group == nil {
		return j.prog.Snapshot()
	}
	agg := parcut.ProgressSnapshot{Phase: "fanout", RunsTotal: int64(j.key.Opt.Boost)}
	for _, c := range j.group.children {
		ps := c.prog.Snapshot()
		agg.RunsDone += ps.RunsDone
		agg.PackRoundsDone += ps.PackRoundsDone
		agg.PackRoundsTotal += ps.PackRoundsTotal
		agg.TreesScanned += ps.TreesScanned
		agg.TreesTotal += ps.TreesTotal
		agg.BoughPhasesDone += ps.BoughPhasesDone
		agg.BoughsProcessed += ps.BoughsProcessed
	}
	return agg
}

// Fanout returns the number of sub-jobs a boosted solve was decomposed
// into, 0 for ordinary jobs. It is fixed at Submit time, so reading it
// never contends with the scheduler.
func (j *Job) Fanout() int {
	if j.group == nil {
		return 0
	}
	return len(j.group.children)
}

// Status is a snapshot of a job visible to API clients.
type Status struct {
	ID      string
	GraphID string
	Opt     SolveOptions
	Class   Class
	// Engine is the concrete solver backend the job runs on (Opt.Engine
	// after normalization — never empty or "auto").
	Engine       string
	State        State
	Value        int64
	InCut        []bool
	TreesScanned int
	// Fanout is the number of sub-jobs a boosted solve was decomposed
	// into; 0 for ordinary jobs.
	Fanout int
	// Progress is the live solver snapshot (aggregated over sub-jobs for
	// fan-out parents); Fraction is its display-oriented completion
	// estimate, forced to 1 for done jobs.
	Progress parcut.ProgressSnapshot
	Fraction float64
	Err      string
	Created  time.Time
	// Dispatched is when a worker picked the job up (zero while queued
	// and for fan-out parents, which never occupy a worker);
	// DispatchSeq is the job's position in the scheduler's global
	// dispatch order (1-based; 0 = never dispatched) — fairness tests
	// and audits read the weighted-fair interleaving from it.
	Dispatched  time.Time
	DispatchSeq uint64
	Finished    time.Time
}

// Config sizes a Scheduler.
type Config struct {
	// Workers is the solver pool size; 0 means 1.
	Workers int
	// History bounds how many finished jobs (and their cached results)
	// are retained; 0 means 1024.
	History int
	// HistoryBytes additionally bounds the memory those retained jobs may
	// pin — partition bytes (Result.InCut) plus their event logs —
	// evicting oldest-first past the budget; a count bound alone would
	// let 1024 partitions of huge graphs (or 1024 full event logs) dwarf
	// the registry budget. 0 means 256 MiB.
	HistoryBytes int64
	// MaxFanout caps how many sub-jobs a boosted solve is decomposed
	// into (larger boosts get chunked run ranges). 0 means
	// max(2*Workers, 8); 1 disables fan-out, running the boost loop
	// sequentially inside one worker.
	MaxFanout int
	// SolveParallelism is the executor width each solver worker owns:
	// the machine's cores are partitioned across the pool instead of
	// oversubscribed (the pre-pool behavior was Workers × GOMAXPROCS
	// goroutines at full load). 0 means ⌈GOMAXPROCS/Workers⌉, so the
	// whole machine is saturated — never exceeded — when every worker is
	// busy. Solver results are identical at every width.
	SolveParallelism int
	// ClassWeights sets each class's dispatch share under contention
	// (deficit-round-robin quantum, unit cost per job). Missing or
	// non-positive entries take the defaults (interactive 8, batch 4,
	// background 1). nil means all defaults.
	ClassWeights map[Class]int
	// ClassQueueCaps bounds each class's queued jobs; a Submit that would
	// queue past the cap returns ErrClassQueueFull. 0 or missing means
	// unbounded. Boost fan-out children are admitted with their parent
	// but occupy real queue slots of the parent's class, so they count
	// against the cap for later submissions — one huge boost exerts the
	// same backpressure as the equivalent number of plain jobs.
	ClassQueueCaps map[Class]int
	// MaxQueue bounds the total queued jobs across classes; Submit
	// returns ErrQueueFull past it. 0 means unbounded.
	MaxQueue int
	// Traces, when non-nil, turns on per-job tracing: every job records a
	// span tree (root "job" span, "queue-wait" and "run" children, solver
	// phase spans below) published into the ring when the job finishes and
	// its last holder releases it. nil disables tracing entirely — jobs
	// carry a nil recorder and every span operation is a single branch.
	Traces *trace.Ring
	// SlowSolve, when positive, logs one structured line (via Logger) for
	// every job whose creation-to-finish wall time reaches it, with queue
	// wait and per-phase attribution.
	SlowSolve time.Duration
	// Logger receives the scheduler's structured logs (currently the
	// slow-solve lines). nil means slog.Default().
	Logger *slog.Logger
	// IDPrefix is prepended to every job ID this scheduler mints. Single
	// instances leave it empty ("job-7"); cluster nodes set a per-node
	// prefix ("a1b2-job-7") so job IDs are unique across the cluster and
	// a job lookup that misses locally can be forwarded to peers without
	// ambiguity.
	IDPrefix string
}

// Scheduler owns the worker pool, the priority queue, and the result
// cache. Create with New, stop with Shutdown.
type Scheduler struct {
	workers      int
	history      int
	historyBytes int64
	maxFanout    int
	solveWidth   int // executor width per solver worker
	maxQueue     int
	weights      [numClasses]int
	caps         [numClasses]int
	traces       *trace.Ring
	slowSolve    time.Duration
	log          *slog.Logger
	idPrefix     string

	baseCtx    context.Context
	cancelBase context.CancelCauseFunc

	mu          sync.Mutex
	cond        *sync.Cond
	queues      [numClasses]jobHeap    // one priority queue per class
	fifos       [numClasses]*list.List // arrival order per class, for aging pops
	queuedTotal int
	deficit     [numClasses]int // remaining DRR quantum per class
	rrIdx       int             // DRR cursor
	agePops     [numClasses]int // pops since the last aging pop per class
	byID        map[string]*Job
	byKey       map[Key]*Job // in-flight or successfully finished jobs
	order       []string     // finished job IDs, oldest first (history ring)
	resBytes    int64        // partition bytes pinned by the history
	nextSeq     uint64
	dispatchSeq uint64
	draining    bool
	running     int // jobs currently on a worker (fan-out parents excluded)
	peakRun     int // high-water mark of running

	execMu sync.Mutex
	execs  []*parcut.Executor // live worker executors, for Metrics aggregation

	wg sync.WaitGroup
	m  counters
}

// New starts a scheduler with cfg.Workers solver goroutines.
func New(cfg Config) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.History < 1 {
		cfg.History = 1024
	}
	if cfg.HistoryBytes < 1 {
		cfg.HistoryBytes = 256 << 20
	}
	if cfg.MaxFanout < 1 {
		cfg.MaxFanout = 2 * cfg.Workers
		if cfg.MaxFanout < 8 {
			cfg.MaxFanout = 8
		}
	}
	if cfg.SolveParallelism < 1 {
		p := runtime.GOMAXPROCS(0)
		cfg.SolveParallelism = (p + cfg.Workers - 1) / cfg.Workers
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Scheduler{
		workers:      cfg.Workers,
		history:      cfg.History,
		historyBytes: cfg.HistoryBytes,
		maxFanout:    cfg.MaxFanout,
		solveWidth:   cfg.SolveParallelism,
		maxQueue:     cfg.MaxQueue,
		traces:       cfg.Traces,
		slowSolve:    cfg.SlowSolve,
		log:          cfg.Logger,
		idPrefix:     cfg.IDPrefix,
		baseCtx:      ctx,
		cancelBase:   cancel,
		byID:         make(map[string]*Job),
		byKey:        make(map[Key]*Job),
	}
	s.m.initEngines()
	for i, c := range Classes {
		s.fifos[i] = list.New()
		s.weights[i] = defaultClassWeights[c]
		if w, ok := cfg.ClassWeights[c]; ok && w > 0 {
			s.weights[i] = w
		}
		if cap := cfg.ClassQueueCaps[c]; cap > 0 {
			s.caps[i] = cap
		}
	}
	// The DRR cursor starts on interactive with a fresh quantum.
	s.deficit[0] = s.weights[0]
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// SubmitOpts qualifies a submission. The zero value is a plain attached
// interactive request.
type SubmitOpts struct {
	// Class is the job's QoS class; the empty string means interactive.
	Class Class
	// Detached submissions run even if nobody waits; attached ones must
	// be followed by exactly one Wait call on the returned job.
	Detached bool
}

// Submit schedules a solve of g (registered under key.GraphID) or joins an
// equivalent job that is already queued, running, or finished. It reports
// whether the request was a cache hit (no new solver run). Joining a job
// escalates it to the stronger of its and the new request's class, so a
// coalesced job always serves its most latency-sensitive waiter.
//
// A Boost > 1 request becomes a fan-out parent: its sub-jobs occupy
// workers (inheriting the parent's class), the parent itself never does.
// The parent reports StateRunning while its sub-jobs are in flight.
//
// Admission control applies to genuinely new work only (joins add no
// queue entries): past Config.MaxQueue total queued jobs Submit returns
// ErrQueueFull, and past the class's Config.ClassQueueCaps entry it
// returns ErrClassQueueFull.
func (s *Scheduler) Submit(key Key, g *parcut.Graph, opts SubmitOpts) (*Job, bool, error) {
	key.Opt = key.Opt.normalized()
	if _, ok := engine.Lookup(key.Opt.Engine); !ok {
		return nil, false, fmt.Errorf("%w %q", ErrUnknownEngine, key.Opt.Engine)
	}
	class, err := ParseClass(string(opts.Class))
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejected.Add(1)
		s.m.rejectedDraining.Add(1)
		return nil, false, ErrDraining
	}
	// A still-unfinished job whose context is already canceled (abandoned
	// waiters, Cancel) is doomed; joining it would hand this fresh request
	// a spurious cancellation error, so start over instead (the doomed job
	// skips its byKey cleanup once it sees it was replaced). Finished jobs
	// always have a canceled context — publish releases it — so the check
	// must not exclude them from cache hits.
	if prev, ok := s.byKey[key]; ok && !doomed(prev) {
		s.m.submitted.Add(1)
		s.m.submittedBy[class.rank()].Add(1)
		s.m.cacheHits.Add(1)
		if prev.state == StateQueued || prev.state == StateRunning {
			s.m.coalesced.Add(1)
		}
		if !opts.Detached {
			prev.waiters++
		}
		if opts.Detached {
			prev.detached = true
		}
		s.escalateLocked(prev, class)
		return prev, true, nil
	}
	if s.maxQueue > 0 && s.queuedTotal >= s.maxQueue {
		s.m.rejected.Add(1)
		s.m.rejectedQueueFull.Add(1)
		return nil, false, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, s.queuedTotal)
	}
	if cap := s.caps[class.rank()]; cap > 0 && s.queues[class.rank()].Len() >= cap {
		s.m.rejected.Add(1)
		s.m.rejectedClassCap.Add(1)
		return nil, false, fmt.Errorf("%w: class %q has %d jobs queued, cap %d",
			ErrClassQueueFull, class, s.queues[class.rank()].Len(), cap)
	}
	s.m.submitted.Add(1)
	s.m.submittedBy[class.rank()].Add(1)
	if key.Opt.Boost > 1 && s.maxFanout > 1 {
		return s.newFanoutLocked(key, g, class, opts.Detached), false, nil
	}
	j := s.newJobLocked(key, g, class, opts.Detached)
	s.pushLocked(j)
	s.cond.Signal()
	return j, false, nil
}

// doomed reports whether j is unfinished but already canceled, so a fresh
// request must not join it.
func doomed(j *Job) bool {
	return j.ctx.Err() != nil && (j.state == StateQueued || j.state == StateRunning)
}

// newJobLocked allocates and registers a queued job (without pushing it to
// its class queue — fan-out parents are never queued).
func (s *Scheduler) newJobLocked(key Key, g *parcut.Graph, class Class, detached bool) *Job {
	s.nextSeq++
	jctx, jcancel := context.WithCancelCause(s.baseCtx)
	j := &Job{
		id:       fmt.Sprintf("%sjob-%d", s.idPrefix, s.nextSeq),
		key:      key,
		g:        g,
		owner:    s,
		class:    class,
		prio:     g.M(),
		seq:      s.nextSeq,
		heapIdx:  -1,
		ctx:      jctx,
		cancel:   jcancel,
		detached: detached,
		state:    StateQueued,
		created:  time.Now(),
		evWake:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	j.prog = parcut.NewProgress(func(ps parcut.ProgressSnapshot) { s.onProgress(j, ps) })
	j.metricClass = class.rank()
	j.engineIdx = engineRank(key.Opt.Engine)
	if s.traces != nil {
		j.rec = trace.NewRecorder(j.id, 0, s.traces.Add)
		j.rootSp = j.rec.Start("job").Attr("job", j.id).Attr("graph", key.GraphID).
			Attr("class", string(class)).Attr("engine", key.Opt.Engine).
			AttrInt("seed", key.Opt.Seed).AttrInt("boost", int64(key.Opt.Boost))
		j.queueSp = j.rootSp.Child("queue-wait").Attr("class", string(class))
	}
	if !detached {
		j.waiters = 1
	}
	s.byID[j.id] = j
	s.byKey[key] = j
	j.recordEvent(Event{Type: "state", State: StateQueued}, false)
	return j
}

// TraceSpan returns the job's root span (the zero SpanRef when tracing is
// disabled). HTTP handlers hang request spans off it; they must take a
// Hold on its Recorder first and Release when done.
func (j *Job) TraceSpan() trace.SpanRef { return j.rootSp }

// newFanoutLocked decomposes a Boost=k solve into up to maxFanout
// sub-jobs covering disjoint run ranges and registers the parent that
// merges them. Sub-jobs inherit the parent's class — they are the
// parent's work wearing smaller coats, so a background boost must not
// have its pieces compete as if they were fresh interactive arrivals —
// and go through the same singleflight keying as external requests, so
// overlapping boost requests share runs. The merge goroutine is
// registered on the scheduler's WaitGroup so Shutdown waits for parents,
// not just workers.
func (s *Scheduler) newFanoutLocked(key Key, g *parcut.Graph, class Class, detached bool) *Job {
	parent := s.newJobLocked(key, g, class, detached)
	parent.state = StateRunning // its sub-jobs are in flight from the start
	parent.group = &fanout{}
	s.m.fanouts.Add(1)

	k := key.Opt.Boost
	chunks := s.maxFanout
	if k < chunks {
		chunks = k
	}
	base, rem := k/chunks, k%chunks
	start := 0
	for i := 0; i < chunks; i++ {
		size := base
		if i < rem {
			size++
		}
		// Children carry the parent's engine: without it two engines'
		// sub-runs for the same seed range would collide in the cache.
		childKey := Key{GraphID: key.GraphID, Opt: SolveOptions{
			Seed:          parcut.BoostSeed(key.Opt.Seed, start),
			WantPartition: key.Opt.WantPartition,
			Boost:         size,
			Engine:        key.Opt.Engine,
		}}
		child, fresh := s.submitChildLocked(childKey, g, class)
		parent.group.children = append(parent.group.children, child)
		// Link the traces both ways: the parent's trace names each child
		// trace, and each child (when this parent created it) names the
		// parent. A shared child keeps its original parent_trace link.
		parent.rootSp.Attr("child_trace", child.id)
		if fresh {
			child.rootSp.Attr("parent_trace", parent.id)
		}
		start += size
	}
	// A fan-out parent never queues — its sub-jobs do — so its queue-wait
	// span closes immediately.
	parent.queueSp.End()
	// The parent never solves; drop its graph reference now so only the
	// children (and the registry) pin it.
	parent.g = nil
	parent.recordEvent(Event{Type: "state", State: StateRunning}, false)
	ps := parent.Progress()
	parent.recordEvent(Event{Type: "phase", Phase: ps.Phase, Progress: &ps, Fraction: fptr(ps.Fraction())}, true)
	s.cond.Broadcast()
	s.wg.Add(1)
	go s.merge(parent)
	return parent
}

// submitChildLocked is Submit's internal sibling for fan-out sub-jobs: the
// parent counts as one waiter, the child inherits the parent's class, and
// the sub-job counters move instead of the external submission counters.
// A shared child is escalated if this parent's class is stronger. fresh
// reports whether the child was created here (false: joined an existing
// or cached job).
func (s *Scheduler) submitChildLocked(key Key, g *parcut.Graph, class Class) (j *Job, fresh bool) {
	s.m.subJobs.Add(1)
	if prev, ok := s.byKey[key]; ok && !doomed(prev) {
		s.m.subJobsShared.Add(1)
		prev.waiters++
		s.escalateLocked(prev, class)
		return prev, false
	}
	j = s.newJobLocked(key, g, class, false)
	s.pushLocked(j)
	return j, true
}

// merge waits for a fan-out parent's children and publishes the reduced
// result: smallest Value, ties broken by run index (children are held in
// run order and each child reduces its own chunk the same way), matching
// the sequential Boost loop exactly. If the parent is canceled, the
// per-child waits give up, which drops the parent's waiter registration
// on every child and thereby cancels the sub-jobs nobody else wants.
func (s *Scheduler) merge(parent *Job) {
	defer s.wg.Done()
	children := parent.group.children
	type sub struct {
		res parcut.Result
		err error
	}
	results := make([]sub, len(children))
	mctx, mcancel := context.WithCancelCause(parent.ctx)
	defer mcancel(nil)
	var wg sync.WaitGroup
	for i, c := range children {
		wg.Add(1)
		go func(i int, c *Job) {
			defer wg.Done()
			res, err := s.Wait(mctx, c)
			results[i] = sub{res, err}
			if err != nil {
				// One failed run fails the whole boost; stop waiting on
				// (and thereby release) the siblings.
				mcancel(err)
				return
			}
			// Each finished chunk is a progress milestone on the parent's
			// own event stream — without this, watchers of a boosted job
			// would see nothing between "running" and the terminal result
			// (the children's phase events land on the children's logs).
			ps := parent.Progress()
			parent.recordEvent(Event{Type: "progress", Phase: ps.Phase, Progress: &ps, Fraction: fptr(ps.Fraction())}, true)
		}(i, c)
	}
	wg.Wait()

	var out parcut.Result
	var err error
	for i, r := range results {
		if r.err != nil {
			// Prefer a real solver failure over the sibling cancellations
			// it triggered.
			if err == nil || (isCancellation(err) && !isCancellation(r.err)) {
				err = r.err
			}
			continue
		}
		if err != nil {
			continue
		}
		if i == 0 || r.res.Value < out.Value {
			out = parcut.Result{Value: r.res.Value, InCut: r.res.InCut, TreesScanned: out.TreesScanned + r.res.TreesScanned}
		} else {
			out.TreesScanned += r.res.TreesScanned
		}
	}
	if err != nil {
		out = parcut.Result{}
		// Wait's errors carry the cancellation *cause* (a plain message),
		// not context.Canceled itself; re-wrap so the parent classifies as
		// canceled exactly when its own context was ended.
		if ctxErr := parent.ctx.Err(); ctxErr != nil && !isCancellation(err) {
			err = fmt.Errorf("sched: boost fan-out canceled (%v): %w", context.Cause(parent.ctx), ctxErr)
		}
	}
	s.publish(parent, out, err)
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Wait blocks until j finishes or ctx is done, whichever is first. When
// the last waiter of a still-unfinished, non-detached job gives up, the
// job's context is canceled so the solver stops promptly instead of
// running to completion. The returned error wraps ctx's cause on timeout
// and the solver's error (including cancellation) otherwise.
func (s *Scheduler) Wait(ctx context.Context, j *Job) (parcut.Result, error) {
	select {
	case <-j.done:
		s.dropWaiter(j)
		return j.res, j.err
	case <-ctx.Done():
		s.dropWaiter(j)
		return parcut.Result{}, fmt.Errorf("sched: wait: %w", context.Cause(ctx))
	}
}

// dropWaiter unregisters one waiter and cancels the job if it was the
// last. The cancel happens under the scheduler lock: deciding outside it
// would let a concurrent Submit join the job in the window between the
// abandon check and the cancel and then see its fresh request canceled.
// (context cancel functions only close done channels and propagate to
// children — they never call back into the scheduler, so holding the
// lock is safe.) A job abandoned while still queued is removed from the
// heap and published right here instead of burning a worker pop.
func (s *Scheduler) dropWaiter(j *Job) {
	s.mu.Lock()
	if j.waiters > 0 {
		j.waiters--
	}
	aborted := false
	if j.waiters == 0 && !j.detached &&
		(j.state == StateQueued || j.state == StateRunning) {
		j.cancel(errors.New("sched: all waiters gone"))
		aborted = s.abortQueuedLocked(j)
	}
	s.mu.Unlock()
	if aborted {
		s.finishPublish(j)
	}
}

// Cancel aborts the job with the given ID. It reports whether the job
// exists and had not already finished. A running job (or fan-out parent)
// transitions through its worker or merge goroutine as before; a job
// still in the queue is removed and published immediately, so queue depth
// and worker time are not spent on doomed work.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.byID[id]
	if !ok || (j.state != StateQueued && j.state != StateRunning) {
		s.mu.Unlock()
		return false
	}
	j.cancel(errors.New("sched: canceled by request"))
	aborted := s.abortQueuedLocked(j)
	s.mu.Unlock()
	if aborted {
		s.finishPublish(j)
	}
	return true
}

// abortQueuedLocked eagerly removes a canceled-but-still-queued job from
// its class queue and records its terminal state. The caller must hold
// s.mu, must already have canceled j's context, and — when true is
// returned — must call finishPublish(j) after unlocking.
func (s *Scheduler) abortQueuedLocked(j *Job) bool {
	if j.state != StateQueued || j.heapIdx < 0 {
		return false
	}
	s.unqueueLocked(j)
	s.publishLocked(j, parcut.Result{}, fmt.Errorf("sched: canceled while queued (%v): %w", context.Cause(j.ctx), j.ctx.Err()))
	return true
}

// InvalidateGraph drops every singleflight/result-cache key for the
// given graph ID and returns how many keys were removed. Callers use it
// when a graph is deleted: without it, a later re-upload of the same
// content (same hash, hence same ID) would be served stale cached cuts
// computed before the delete. In-flight jobs keep running — they hold
// their own graph reference — but lose their cache key, so they finish
// for their current waiters and are never joined or replayed afterwards.
func (s *Scheduler) InvalidateGraph(graphID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for key := range s.byKey {
		if key.GraphID == graphID {
			delete(s.byKey, key)
			n++
		}
	}
	return n
}

// Job returns a snapshot of the job with the given ID.
func (s *Scheduler) Job(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return Status{}, false
	}
	return s.statusLocked(j), true
}

func (s *Scheduler) statusLocked(j *Job) Status {
	st := Status{
		ID:          j.id,
		GraphID:     j.key.GraphID,
		Opt:         j.key.Opt,
		Class:       j.class,
		Engine:      j.key.Opt.Engine,
		State:       j.state,
		Created:     j.created,
		Dispatched:  j.dispatched,
		DispatchSeq: j.dispatchSeq,
		Finished:    j.finished,
		Progress:    j.Progress(),
	}
	st.Fraction = st.Progress.Fraction()
	if j.group != nil {
		st.Fanout = len(j.group.children)
	}
	if j.state == StateDone {
		st.Value = j.res.Value
		st.InCut = j.res.InCut
		st.TreesScanned = j.res.TreesScanned
		st.Fraction = 1
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Lookup returns the live job object for event streaming; most callers
// want the Status snapshot from Job instead.
func (s *Scheduler) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// Metrics returns a snapshot of the scheduler's counters and gauges.
func (s *Scheduler) Metrics() Metrics {
	m := s.m.snapshot()
	s.mu.Lock()
	depth := 0
	for i := range s.queues {
		d := s.queues[i].Len()
		depth += d
		m.Classes[i].QueueDepth = d
	}
	m.QueueDepth = depth
	m.Running = s.running
	m.PeakRunning = s.peakRun
	s.mu.Unlock()
	for i, c := range Classes {
		m.Classes[i].Class = c
		m.Classes[i].Weight = s.weights[i]
		m.Classes[i].QueueCap = s.caps[i]
	}
	m.Workers = s.workers
	m.PoolWidth = s.solveWidth
	s.execMu.Lock()
	for _, e := range s.execs {
		st := e.Stats()
		m.Pool.Steals += st.Steals
		m.Pool.LocalPushes += st.LocalPushes
		m.Pool.SharedPushes += st.SharedPushes
		m.Pool.OverflowPushes += st.OverflowPushes
		m.Pool.InlineRuns += st.InlineRuns
		m.Pool.ArenaHits += st.ArenaHits
		m.Pool.ArenaMisses += st.ArenaMisses
	}
	s.execMu.Unlock()
	return m
}

// Shutdown stops accepting new jobs and waits for queued and running work
// (including fan-out merges) to finish. If ctx expires first, every
// outstanding job is canceled and Shutdown waits (briefly, since the
// solver aborts between phases) for the workers to exit, then returns
// ctx's error.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.cancelBase(fmt.Errorf("sched: shutdown deadline: %w", context.Cause(ctx)))
		<-drained
		return ctx.Err()
	}
}

// worker pops jobs by weighted-fair class order until the scheduler
// drains. Each worker owns a solveWidth-wide executor for the whole of
// its life, so the workers together hold a fixed partition of the
// machine's cores: no per-solve goroutine churn, and at full load exactly
// workers × solveWidth lanes are live instead of the unbounded
// workers × GOMAXPROCS oversubscription of per-call spawning.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	exec := parcut.NewExecutor(s.solveWidth)
	defer exec.Close()
	s.execMu.Lock()
	s.execs = append(s.execs, exec)
	s.execMu.Unlock()
	defer func() {
		s.execMu.Lock()
		for i, e := range s.execs {
			if e == exec {
				s.execs[i] = s.execs[len(s.execs)-1]
				s.execs = s.execs[:len(s.execs)-1]
				break
			}
		}
		s.execMu.Unlock()
	}()
	for {
		s.mu.Lock()
		for s.queuedTotal == 0 && !s.draining {
			s.cond.Wait()
		}
		j := s.pickLocked()
		if j == nil {
			s.mu.Unlock()
			return
		}
		j.state = StateRunning
		s.dispatchSeq++
		j.dispatchSeq = s.dispatchSeq
		j.dispatched = time.Now()
		s.running++
		if s.running > s.peakRun {
			s.peakRun = s.running
		}
		c := j.class.rank()
		j.metricClass = c
		s.mu.Unlock()
		j.queueSp.End()
		wait := j.dispatched.Sub(j.created)
		s.m.dispatchedBy[c].Add(1)
		s.m.queueWaitNanosBy[c].Add(int64(wait))
		s.m.queueWaitHist[c].observe(wait)
		j.recordEvent(Event{Type: "state", State: StateRunning}, false)
		s.run(j, exec)
	}
}

// run executes one job on the worker's executor and publishes its terminal
// state.
func (s *Scheduler) run(j *Job, exec *parcut.Executor) {
	var (
		res parcut.Result
		err error
	)
	if err = j.ctx.Err(); err == nil {
		opt := j.key.Opt.parcut()
		opt.Executor = exec
		opt.Progress = j.prog
		opt.Trace = j.rootSp.Child("run").Attr("engine", j.key.Opt.Engine).AttrInt("width", int64(s.solveWidth))
		start := time.Now()
		res, err = parcut.MinCutContext(j.ctx, j.g, opt)
		opt.Trace.End()
		if err == nil {
			s.m.observeSolve(time.Since(start))
		}
	}
	s.publish(j, res, err)
}

// publish records j's terminal state and wakes its waiters.
func (s *Scheduler) publish(j *Job, res parcut.Result, err error) {
	s.mu.Lock()
	s.publishLocked(j, res, err)
	s.mu.Unlock()
	s.finishPublish(j)
}

// finishPublish completes a publishLocked outside the lock: it settles
// the phase-seconds accounting, appends the terminal "result" event (so
// event streams always end, even on failure or cancellation), wakes the
// waiters, and releases the job's context resources.
func (s *Scheduler) finishPublish(j *Job) {
	s.closePhaseTimer(j)
	ev := Event{Type: "result", State: j.state, Terminal: true, Fraction: fptr(j.Progress().Fraction())}
	if j.state == StateDone {
		v := j.res.Value
		ev.Value = &v
		ev.InCut = j.res.InCut
		ev.Trees = j.res.TreesScanned
		ev.Fraction = fptr(1)
	}
	if j.err != nil {
		ev.Err = j.err.Error()
	}
	j.recordEvent(ev, false)
	if j.rec != nil {
		j.rootSp.Attr("state", string(j.state))
		j.rootSp.End()
		j.rec.Release() // publish unless an HTTP handler still holds it
	}
	if s.slowSolve > 0 {
		if d := j.finished.Sub(j.created); d >= s.slowSolve {
			j.evMu.Lock()
			pack, scan, contract := j.packNanos, j.scanNanos, j.contractNanos
			j.evMu.Unlock()
			var wait time.Duration
			if !j.dispatched.IsZero() {
				wait = j.dispatched.Sub(j.created)
			}
			s.log.Warn("slow solve",
				"job", j.id,
				"graph", j.key.GraphID,
				"class", Classes[j.metricClass],
				"engine", j.key.Opt.Engine,
				"state", j.state,
				"duration", d,
				"queue_wait", wait,
				"packing", time.Duration(pack),
				"scan", time.Duration(scan),
				"contract", time.Duration(contract),
				"trees", j.res.TreesScanned,
				"fanout", j.Fanout())
		}
	}
	close(j.done)
	j.cancel(nil)
}

// publishLocked moves j to its terminal state and does the cache and
// history bookkeeping. The caller must hold s.mu and must call
// finishPublish(j) after unlocking (done is closed outside the lock so
// waiters that race with the publish never contend on it).
func (s *Scheduler) publishLocked(j *Job, res parcut.Result, err error) {
	if j.state == StateRunning && j.group == nil {
		s.running--
	}
	j.res, j.err = res, err
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		s.m.completed.Add(1)
		s.m.completedBy[j.class.rank()].Add(1)
		s.m.completedCell(j.class.rank(), j.engineIdx).Add(1)
	case isCancellation(err):
		j.state = StateCanceled
		s.m.canceled.Add(1)
	default:
		j.state = StateFailed
		s.m.failed.Add(1)
	}
	// Only successful results stay cached; a failed or canceled key must
	// be retryable. A doomed job may already have been replaced under its
	// key by a fresh Submit — leave the replacement alone.
	if j.state != StateDone && s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	// The graph is only needed for the solve; drop the reference so the
	// history pins partitions (bounded below) but never whole graphs.
	j.g = nil
	// Charge the retained memory — partition bytes plus the event log
	// (which a long solve grows to maxJobEvents snapshot-carrying
	// entries) — against the history budget; the charge is remembered on
	// the job so eviction releases exactly what was charged, even though
	// the terminal event is appended after this point.
	j.evMu.Lock()
	j.histBytes = int64(len(j.res.InCut)) + int64(len(j.events)+1)*eventBytesEstimate
	j.evMu.Unlock()
	s.order = append(s.order, j.id)
	s.resBytes += j.histBytes
	for len(s.order) > 1 && (len(s.order) > s.history || s.resBytes > s.historyBytes) {
		old := s.order[0]
		s.order = s.order[1:]
		if oj, ok := s.byID[old]; ok {
			s.resBytes -= oj.histBytes
			delete(s.byID, old)
			if s.byKey[oj.key] == oj {
				delete(s.byKey, oj.key)
			}
		}
	}
}

// jobHeap orders queued jobs by graph size, then submission order: small
// graphs jump the queue because their solves are fastest, which minimizes
// mean latency under mixed load. Each job tracks its heap index so
// cancellation can remove it eagerly.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].prio != h[b].prio {
		return h[a].prio < h[b].prio
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].heapIdx = a
	h[b].heapIdx = b
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*h = old[:n-1]
	return j
}
