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
// Every worker solves on one shared parcut.Executor of width GOMAXPROCS,
// created by New and closed by Shutdown. Each busy worker is one more
// lane of that executor (a joining caller helps run queued branches), so
// a lone solve spreads over every core, and W busy workers run on at most
// W + GOMAXPROCS − 1 goroutines. Executor width never affects results.
//
// A boosted request (Boost=k) is one job like any other: its worker runs
// parcut's boost loop on the shared executor, so the result is exactly
// the library's for the same options.
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

// ErrGraphTooLarge is returned by Submit for a stoerwagner job on more
// than maxStoerWagnerN vertices, whose n×n weight matrix would not fit.
var ErrGraphTooLarge = errors.New("sched: graph too large for engine")

// maxStoerWagnerN bounds the vertex count of a stoerwagner job. Its
// matrix is 8n² bytes, 512 MiB here, and the bound is 8× the largest n
// that engine.Resolve's auto rule sends to stoerwagner.
const maxStoerWagnerN = 8192

// SolveOptions is the comparable subset of parcut.Options that, together
// with the graph ID, keys the result cache. Submit normalizes it so
// equivalent requests share one key: Boost 0 and 1 both mean a single
// run, the empty Engine means the default, and an exact engine drops Seed
// and Boost — it runs once and returns the same result for every seed, so
// all its requests for a graph map to one cache entry.
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
	if eng, ok := engine.Lookup(o.Engine); ok && eng.Caps().Exact {
		o.Boost = 1
		o.Seed = 0
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

// Job is one scheduled (possibly shared) solve. All mutable fields are
// guarded by the owning scheduler's mutex; Done is closed exactly once
// when the job reaches a terminal state.
type Job struct {
	id  string
	key Key
	g   *parcut.Graph

	class    Class
	prio     int           // graph edge count; smaller solves first within a class
	seq      uint64        // FIFO tiebreak
	heapIdx  int           // index in its class queue heap; -1 once popped or removed
	fifoElem *list.Element // position in its class's arrival FIFO (aging); nil once dequeued

	ctx    context.Context
	cancel context.CancelCauseFunc

	waiters  int
	detached bool // submitted without a waiter; never auto-canceled

	// prog is the live progress sink threaded into the solver; its hook
	// feeds the event log and the phase-seconds metrics.
	prog *parcut.Progress

	// Tracing (all nil/zero when the scheduler has no trace ring). rec
	// publishes the job's span tree when its last holder releases it; the
	// scheduler's own hold is released once, by releaseTraceLocked. rootSp
	// and queueSp are written once at creation and immutable afterwards.
	rec     *trace.Recorder
	rootSp  trace.SpanRef
	queueSp trace.SpanRef
	// traceReleased records, under s.mu, that the scheduler's hold on rec
	// was released.
	traceReleased bool
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
	// Per-job phase wall time, indexed like phaseNames (evMu-guarded,
	// same writers as evPhaseAt): the slow-solve log reads it to say
	// where a slow job's time went.
	phaseNanos [len(phaseNames)]int64

	done chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

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
	// Progress is the live solver snapshot; Fraction is its
	// display-oriented completion estimate, forced to 1 for done jobs.
	Progress parcut.ProgressSnapshot
	Fraction float64
	Err      string
	Created  time.Time
	// Dispatched is when a worker picked the job up (zero while queued);
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
	// ClassWeights sets each class's dispatch share under contention
	// (deficit-round-robin quantum, unit cost per job). Missing or
	// non-positive entries take the defaults (interactive 8, batch 4,
	// background 1). nil means all defaults.
	ClassWeights map[Class]int
	// ClassQueueCaps bounds each class's queued jobs; a Submit that would
	// queue past the cap returns ErrClassQueueFull. 0 or missing means
	// unbounded. A boosted job takes one slot, like any other job.
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
	exec         *parcut.Executor // shared by every worker; closed by Shutdown
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
	running     int // jobs currently on a worker
	peakRun     int // high-water mark of running

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
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Scheduler{
		workers:      cfg.Workers,
		history:      cfg.History,
		historyBytes: cfg.HistoryBytes,
		exec:         parcut.NewExecutor(runtime.GOMAXPROCS(0)),
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
// Admission control applies to genuinely new work only (joins add no
// queue entries): past Config.MaxQueue total queued jobs Submit returns
// ErrQueueFull, and past the class's Config.ClassQueueCaps entry it
// returns ErrClassQueueFull. A stoerwagner job on a graph too large for
// its matrix returns ErrGraphTooLarge.
func (s *Scheduler) Submit(key Key, g *parcut.Graph, opts SubmitOpts) (*Job, bool, error) {
	key.Opt = key.Opt.normalized()
	if _, ok := engine.Lookup(key.Opt.Engine); !ok {
		return nil, false, fmt.Errorf("%w %q", ErrUnknownEngine, key.Opt.Engine)
	}
	if key.Opt.Engine == "stoerwagner" && g.N() > maxStoerWagnerN {
		return nil, false, fmt.Errorf("%w: stoerwagner takes at most %d vertices, graph has %d",
			ErrGraphTooLarge, maxStoerWagnerN, g.N())
	}
	class, err := ParseClass(string(opts.Class))
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
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
		s.m.rejectedQueueFull.Add(1)
		return nil, false, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, s.queuedTotal)
	}
	if cap := s.caps[class.rank()]; cap > 0 && s.queues[class.rank()].Len() >= cap {
		s.m.rejectedClassCap.Add(1)
		return nil, false, fmt.Errorf("%w: class %q has %d jobs queued, cap %d",
			ErrClassQueueFull, class, s.queues[class.rank()].Len(), cap)
	}
	s.m.submittedBy[class.rank()].Add(1)
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

// newJobLocked allocates and registers a queued job; the caller pushes it
// to its class queue.
func (s *Scheduler) newJobLocked(key Key, g *parcut.Graph, class Class, detached bool) *Job {
	s.nextSeq++
	jctx, jcancel := context.WithCancelCause(s.baseCtx)
	j := &Job{
		id:       fmt.Sprintf("%sjob-%d", s.idPrefix, s.nextSeq),
		key:      key,
		g:        g,
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
// heap and published right here instead of burning a worker pop. The
// last waiter of a finished job also releases its trace.
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
	release := s.releaseTraceLocked(j)
	s.mu.Unlock()
	if aborted {
		s.finishPublish(j)
	}
	if release {
		j.rec.Release()
	}
}

// releaseTraceLocked reports whether the caller must release the
// scheduler's hold on j's trace, which is once j is terminal and no
// attached waiter is left: a handler that attaches its span between
// Submit and Wait then always finds the trace unpublished, however fast
// the solve. It reports true at most once per job. The caller holds s.mu
// and calls j.rec.Release after unlocking.
func (s *Scheduler) releaseTraceLocked(j *Job) bool {
	if j.rec == nil || j.traceReleased || j.waiters > 0 ||
		j.state == StateQueued || j.state == StateRunning {
		return false
	}
	j.traceReleased = true
	return true
}

// Cancel aborts the job with the given ID. It reports whether the job
// exists and had not already finished. A running job transitions through
// its worker as before; a job still in the queue is removed and published immediately, so queue depth
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
		Progress:    j.prog.Snapshot(),
	}
	st.Fraction = st.Progress.Fraction()
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
	m.PoolWidth = s.exec.Width()
	m.Pool = s.exec.Stats()
	return m
}

// Shutdown stops accepting new jobs and waits for queued and running work
// to finish. If ctx expires first, every
// outstanding job is canceled and Shutdown waits (briefly, since the
// solver aborts between phases) for the workers to exit, then returns
// ctx's error. Either way the shared executor is closed once the last
// worker has exited.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.exec.Close()
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
// drains, and runs each on the scheduler's shared executor. The worker's
// goroutine is one lane of that executor while it solves: its forks go to
// the executor's GOMAXPROCS − 1 persistent lanes, and it helps run queued
// branches while it joins, so a lone solve uses every core and a
// saturated scheduler adds no goroutines beyond the workers themselves.
func (s *Scheduler) worker() {
	defer s.wg.Done()
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
		s.m.queueWait[c].Observe(j.dispatched.Sub(j.created))
		j.recordEvent(Event{Type: "state", State: StateRunning}, false)
		s.run(j)
	}
}

// run executes one job on the shared executor and publishes its terminal
// state.
func (s *Scheduler) run(j *Job) {
	var (
		res parcut.Result
		err error
	)
	if err = j.ctx.Err(); err == nil {
		opt := j.key.Opt.parcut()
		opt.Executor = s.exec
		opt.Progress = j.prog
		opt.Trace = j.rootSp.Child("run").Attr("engine", j.key.Opt.Engine).AttrInt("width", int64(s.exec.Width()))
		start := time.Now()
		res, err = parcut.MinCutContext(j.ctx, j.g, opt)
		opt.Trace.End()
		if err == nil {
			s.m.solve.Observe(time.Since(start))
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
	ev := Event{Type: "result", State: j.state, Terminal: true, Fraction: fptr(j.prog.Snapshot().Fraction())}
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
	s.mu.Lock()
	release := s.releaseTraceLocked(j)
	s.mu.Unlock()
	if release {
		j.rec.Release() // publish unless an HTTP handler still holds it
	}
	if s.slowSolve > 0 {
		if d := j.finished.Sub(j.created); d >= s.slowSolve {
			j.evMu.Lock()
			phase := j.phaseNanos
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
				"packing", time.Duration(phase[0]),
				"scan", time.Duration(phase[1]),
				"contract", time.Duration(phase[2]),
				"trees", j.res.TreesScanned)
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
	if j.state == StateRunning {
		s.running--
	}
	j.res, j.err = res, err
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		s.m.completedBy[j.class.rank()][j.engineIdx].Add(1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		s.m.canceled.Add(1)
	default:
		j.state = StateFailed
		s.m.failed.Add(1)
	}
	// End the root span here, not in finishPublish: the last waiter's
	// dropWaiter may publish the trace before finishPublish runs.
	if j.rec != nil {
		j.rootSp.Attr("state", string(j.state))
		j.rootSp.End()
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
