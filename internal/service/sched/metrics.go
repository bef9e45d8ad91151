package sched

import (
	"sync/atomic"
	"time"

	parcut "repro"
	"repro/internal/engine"
)

// latencyBuckets are the upper bounds (seconds) of every mincutd
// histogram, chosen to straddle the microsecond-to-seconds range the
// solver spans from toy graphs to millions of edges. HTTP request
// latency shares them, so solve and request heat maps line up.
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

// engineNames is the metric label space for the engine dimension: the
// engine table, in its order.
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

// Histogram is a cumulative (Prometheus le-semantics) duration histogram
// over latencyBuckets. Its cells are atomics, so hot paths record without
// a lock; the zero value is empty and ready to use.
type Histogram struct {
	count    atomic.Int64
	sumNanos atomic.Int64
	buckets  [len(latencyBuckets)]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.buckets[i].Add(1)
		}
	}
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.count.Load(), SumNanos: h.sumNanos.Load()}
	for i, ub := range latencyBuckets {
		out.Buckets = append(out.Buckets, LatencyBucket{UpperBound: ub, Count: h.buckets[i].Load()})
	}
	return out
}

// HistogramSnapshot is a point-in-time histogram snapshot. Buckets are
// cumulative (le semantics); the implicit +Inf bucket is Count.
type HistogramSnapshot struct {
	Count    int64
	SumNanos int64
	Buckets  []LatencyBucket
}

// LatencyBucket is one cumulative histogram bucket.
type LatencyBucket struct {
	UpperBound float64 // seconds; the final +Inf bucket is Count
	Count      int64
}

// counters records each of the scheduler's primary events once; snapshot
// derives every total from them. All cells are atomics so the hot path
// never takes the scheduler lock to record them, and all are fixed-size,
// so a zero-value counters is ready to use.
type counters struct {
	// Submissions per class and completions per {class, engine}.
	submittedBy [numClasses]atomic.Int64
	completedBy [numClasses][engine.Count]atomic.Int64

	// Rejections by reason.
	rejectedDraining, rejectedQueueFull, rejectedClassCap atomic.Int64

	failed, canceled, cacheHits, coalesced atomic.Int64
	// escalated counts queued jobs requeued onto a stronger class after a
	// higher-class request coalesced onto them.
	escalated atomic.Int64

	// solve times successful solver runs. queueWait times each dispatched
	// job's queue wait per class, so its count is the class's dispatches.
	// phase times solver wall time per {class, phase, engine}, fed by the
	// jobs' progress hooks (tails of canceled runs included — operators
	// care where time went, not only where it succeeded).
	solve     Histogram
	queueWait [numClasses]Histogram
	phase     [numClasses][len(phaseNames)][engine.Count]Histogram
}

// ClassMetrics is one QoS class's share of the scheduler's counters.
type ClassMetrics struct {
	Class Class
	// Weight is the class's DRR quantum; QueueCap its admission bound
	// (0 = unbounded).
	Weight, QueueCap int
	// QueueDepth is the class's current queued jobs; Submitted and
	// Completed its monotonic lifecycle counters.
	QueueDepth           int
	Submitted, Completed int64
	// QueueWait is the class's queued-to-dispatched wall time: its Count
	// is the class's dispatched jobs and its SumNanos their total wait.
	QueueWait HistogramSnapshot
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
	Hist   HistogramSnapshot
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
	// (engine table order).
	Engines []string
	// CacheHits counts Submit calls served without a new solver run —
	// either a finished cached result or joining an in-flight job.
	// Coalesced is the in-flight-join subset.
	CacheHits, Coalesced int64
	// Solve is the wall time of completed solver runs.
	Solve HistogramSnapshot
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
		Failed:            c.failed.Load(),
		Canceled:          c.canceled.Load(),
		RejectedDraining:  c.rejectedDraining.Load(),
		RejectedQueueFull: c.rejectedQueueFull.Load(),
		RejectedClassCap:  c.rejectedClassCap.Load(),
		Escalated:         c.escalated.Load(),
		CacheHits:         c.cacheHits.Load(),
		Coalesced:         c.coalesced.Load(),
		Solve:             c.solve.Snapshot(),
		Engines:           engine.Names(),
	}
	m.Rejected = m.RejectedDraining + m.RejectedQueueFull + m.RejectedClassCap
	for i := range Classes {
		cm := &m.Classes[i]
		cm.Class = Classes[i]
		cm.Submitted = c.submittedBy[i].Load()
		cm.QueueWait = c.queueWait[i].Snapshot()
		for e, en := range engineNames {
			n := c.completedBy[i][e].Load()
			cm.Completed += n
			cm.CompletedByEngine = append(cm.CompletedByEngine, EngineCount{Engine: en, Count: n})
		}
		for p, name := range phaseNames {
			for e, en := range engineNames {
				cm.PhaseDurationsByEngine = append(cm.PhaseDurationsByEngine,
					EnginePhaseHistogram{Phase: name, Engine: en, Hist: c.phase[i][p][e].Snapshot()})
			}
		}
		m.Submitted += cm.Submitted
		m.Completed += cm.Completed
	}
	return m
}
