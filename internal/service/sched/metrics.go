package sched

import (
	"sync/atomic"
	"time"

	parcut "repro"
	"repro/internal/engine"
)

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram, chosen to straddle the microsecond-to-seconds range the
// solver spans from toy graphs to millions of edges.
var latencyBuckets = [...]float64{0.001, 0.01, 0.1, 1, 10, 60}

// phaseNames are the solver phases the duration histograms track: the
// packed-tree engines' packing and scan, plus the exact baseline's
// contract.
var phaseNames = [...]string{"packing", "scan", "contract"}

// phaseIndex maps a phase's wire name to its index in phaseNames.
func phaseIndex(phase string) (int, bool) {
	for i, n := range phaseNames {
		if n == phase {
			return i, true
		}
	}
	return 0, false
}

// engineNames is the metric label space for the engine dimension, fixed
// at package init from the registry (registration order). Engines
// registered later by external code run fine but fold into index 0 in
// the engine-labeled series.
var engineNames = engine.Names()

// engineRank maps an engine name to its index in engineNames.
func engineRank(name string) int {
	for i, n := range engineNames {
		if n == name {
			return i
		}
	}
	return 0
}

// hist is a cumulative (Prometheus le-semantics) histogram over
// latencyBuckets: atomic buckets plus count and sum, so the solver-side
// hooks record observations without any lock.
type hist struct {
	count    atomic.Int64
	sumNanos atomic.Int64
	buckets  [len(latencyBuckets)]atomic.Int64
}

func (h *hist) observe(d time.Duration) {
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.buckets[i].Add(1)
		}
	}
}

// Histogram is a point-in-time histogram snapshot. Buckets are cumulative
// (le semantics); the implicit +Inf bucket is Count.
type Histogram struct {
	Count    int64
	SumNanos int64
	Buckets  []LatencyBucket
}

func (h *hist) snapshot() Histogram {
	out := Histogram{Count: h.count.Load(), SumNanos: h.sumNanos.Load()}
	for i, ub := range latencyBuckets {
		out.Buckets = append(out.Buckets, LatencyBucket{UpperBound: ub, Count: h.buckets[i].Load()})
	}
	return out
}

// counters aggregates the scheduler's monotonic metrics. All fields are
// atomics so the hot path never takes the scheduler lock to record them.
type counters struct {
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64

	// Rejections by reason; their sum is `rejected`.
	rejectedDraining  atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedClassCap  atomic.Int64

	// Per-class counters, indexed by classRank.
	submittedBy      [numClasses]atomic.Int64
	dispatchedBy     [numClasses]atomic.Int64
	completedBy      [numClasses]atomic.Int64
	queueWaitNanosBy [numClasses]atomic.Int64

	// escalated counts queued jobs requeued onto a stronger class after a
	// higher-class request coalesced onto them.
	escalated atomic.Int64

	solveCount atomic.Int64
	solveNanos atomic.Int64
	buckets    [len(latencyBuckets)]atomic.Int64 // cumulative, le semantics

	// Queue wait per class, with distribution.
	queueWaitHist [numClasses]hist

	// Engine-labeled series, allocated by initEngines (engineNames is not
	// a compile-time constant): completions per {class, engine}, and solve
	// wall time per {class, phase, engine}, fed by the jobs' progress
	// hooks (tails of canceled runs included — operators care where time
	// went, not only where it succeeded).
	completedByClassEngine []atomic.Int64 // [class*len(engineNames)+engine]
	solveHist              []hist         // [(class*len(phaseNames)+phase)*len(engineNames)+engine]
}

// initEngines sizes the engine-labeled series; New calls it once. A
// counters value that skipped it (zero-value Schedulers in tests) drops
// engine-labeled observations into the discard cells below instead of
// panicking.
func (c *counters) initEngines() {
	ne := len(engineNames)
	c.completedByClassEngine = make([]atomic.Int64, numClasses*ne)
	c.solveHist = make([]hist, numClasses*len(phaseNames)*ne)
}

var (
	discardCount atomic.Int64
	discardHist  hist
)

// completedCell addresses the {class, engine} completion counter.
func (c *counters) completedCell(class, eng int) *atomic.Int64 {
	if len(c.completedByClassEngine) == 0 {
		return &discardCount
	}
	return &c.completedByClassEngine[class*len(engineNames)+eng]
}

// solveHistCell addresses the {class, phase, engine} duration histogram.
func (c *counters) solveHistCell(class, phase, eng int) *hist {
	if len(c.solveHist) == 0 {
		return &discardHist
	}
	return &c.solveHist[(class*len(phaseNames)+phase)*len(engineNames)+eng]
}

func (c *counters) observeSolve(d time.Duration) {
	c.solveCount.Add(1)
	c.solveNanos.Add(int64(d))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			c.buckets[i].Add(1)
		}
	}
}

// LatencyBucket is one cumulative histogram bucket.
type LatencyBucket struct {
	UpperBound float64 // seconds; the final +Inf bucket is SolveCount
	Count      int64
}

// ClassMetrics is one QoS class's share of the scheduler's counters.
type ClassMetrics struct {
	Class Class
	// Weight is the class's DRR quantum; QueueCap its admission bound
	// (0 = unbounded).
	Weight, QueueCap int
	// QueueDepth is the class's current queued jobs; Submitted,
	// Dispatched, and Completed its monotonic lifecycle counters, and
	// QueueWaitNanos the total queued-to-dispatched wall time (so
	// QueueWaitNanos/Dispatched is the class's mean queue wait).
	QueueDepth                       int
	Submitted, Dispatched, Completed int64
	QueueWaitNanos                   int64
	// QueueWait is the class's queue-wait histogram (same data as
	// QueueWaitNanos/Dispatched, with distribution).
	QueueWait Histogram
	// CompletedByEngine breaks Completed down by solve engine, in
	// Metrics.Engines order.
	CompletedByEngine []EngineCount
	// PhaseDurationsByEngine holds the class's solve-duration histograms
	// per {phase, engine}: phases in phaseNames order (packing, scan,
	// contract), engines in Metrics.Engines order within each phase.
	PhaseDurationsByEngine []EnginePhaseHistogram
}

// EngineCount is one engine's share of a per-class counter.
type EngineCount struct {
	Engine string
	Count  int64
}

// EnginePhaseHistogram is one {phase, engine} duration histogram for one
// class.
type EnginePhaseHistogram struct {
	Phase  string
	Engine string
	Hist   Histogram
}

// Metrics is a point-in-time snapshot of the scheduler's counters and
// gauges.
type Metrics struct {
	// Submitted counts accepted Submit calls; Rejected the submissions
	// turned away (RejectedDraining + RejectedQueueFull +
	// RejectedClassCap partition it by reason). Completed/Failed/Canceled
	// partition the jobs that reached a terminal state.
	Submitted, Rejected, Completed, Failed, Canceled      int64
	RejectedDraining, RejectedQueueFull, RejectedClassCap int64
	// Classes breaks the load down by QoS class, indexed by classRank
	// (i.e. the order of the package-level Classes list). Escalated
	// counts queued jobs promoted to a stronger class by coalescing.
	Classes   [numClasses]ClassMetrics
	Escalated int64
	// Engines lists the engine label values of the per-engine series
	// (registration order).
	Engines []string
	// CacheHits counts Submit calls served without a new solver run —
	// either a finished cached result or joining an in-flight job.
	// Coalesced is the in-flight-join subset.
	CacheHits, Coalesced int64
	// SolveCount and SolveNanos accumulate completed solver runs and
	// their total wall time; LatencyBuckets is the cumulative histogram.
	SolveCount, SolveNanos int64
	LatencyBuckets         []LatencyBucket
	// QueueDepth and Running are current gauges; PeakRunning is Running's
	// high-water mark; Workers is the pool size; PoolWidth is the width of
	// the executor every worker solves on (GOMAXPROCS at New).
	QueueDepth, Running, PeakRunning, Workers, PoolWidth int
	// Pool holds the shared executor's scheduling and arena counters:
	// forks, steals (forked branches another goroutine ran), inline
	// degradations (always 0 while the executor is open), and
	// solve-arena hit rates.
	Pool parcut.PoolStats
}

func (c *counters) snapshot() Metrics {
	m := Metrics{
		Submitted:         c.submitted.Load(),
		Rejected:          c.rejected.Load(),
		Completed:         c.completed.Load(),
		Failed:            c.failed.Load(),
		Canceled:          c.canceled.Load(),
		RejectedDraining:  c.rejectedDraining.Load(),
		RejectedQueueFull: c.rejectedQueueFull.Load(),
		RejectedClassCap:  c.rejectedClassCap.Load(),
		Escalated:         c.escalated.Load(),
		CacheHits:         c.cacheHits.Load(),
		Coalesced:         c.coalesced.Load(),
		SolveCount:        c.solveCount.Load(),
		SolveNanos:        c.solveNanos.Load(),
	}
	for i := range Classes {
		m.Classes[i] = ClassMetrics{
			Class:          Classes[i],
			Submitted:      c.submittedBy[i].Load(),
			Dispatched:     c.dispatchedBy[i].Load(),
			Completed:      c.completedBy[i].Load(),
			QueueWaitNanos: c.queueWaitNanosBy[i].Load(),
			QueueWait:      c.queueWaitHist[i].snapshot(),
		}
		for e, en := range engineNames {
			m.Classes[i].CompletedByEngine = append(m.Classes[i].CompletedByEngine,
				EngineCount{Engine: en, Count: c.completedCell(i, e).Load()})
		}
		for p, name := range phaseNames {
			for e, en := range engineNames {
				m.Classes[i].PhaseDurationsByEngine = append(m.Classes[i].PhaseDurationsByEngine,
					EnginePhaseHistogram{Phase: name, Engine: en, Hist: c.solveHistCell(i, p, e).snapshot()})
			}
		}
	}
	m.Engines = append([]string(nil), engineNames...)
	for i, ub := range latencyBuckets {
		m.LatencyBuckets = append(m.LatencyBuckets, LatencyBucket{UpperBound: ub, Count: c.buckets[i].Load()})
	}
	return m
}
