package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	parcut "repro"
)

// Class is a job's quality-of-service class. Classes share the worker
// pool by weighted fairness: each class owns its own queue (still
// smallest-graph-first within the class), and workers pick the next job
// by deficit round robin over the class weights, so a saturated
// background tenant can never starve interactive callers — it can only
// slow them by its weight share.
type Class string

const (
	// ClassInteractive is for latency-sensitive callers (the default for
	// single synchronous solves).
	ClassInteractive Class = "interactive"
	// ClassBatch is for bulk work that still has a caller waiting (the
	// default for the batch endpoint).
	ClassBatch Class = "batch"
	// ClassBackground is for best-effort work: it proceeds only at its
	// weight share and is the first to queue behind everyone else.
	ClassBackground Class = "background"
)

// Classes lists every class in dispatch-preference order; classRank
// indexes into it and into every per-class array.
var Classes = [...]Class{ClassInteractive, ClassBatch, ClassBackground}

const numClasses = len(Classes)

// classRank maps a (normalized) class to its array index.
func classRank(c Class) int {
	for i, cc := range Classes {
		if cc == c {
			return i
		}
	}
	return 0
}

// ErrUnknownClass reports a class name outside the known set.
var ErrUnknownClass = errors.New("sched: unknown class")

// ParseClass validates a wire-format class name. The empty string means
// ClassInteractive: an unclassified request is someone waiting for an
// answer, and defaulting them to the strongest class preserves the
// pre-class scheduler's latency behavior.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "":
		return ClassInteractive, nil
	case ClassInteractive, ClassBatch, ClassBackground:
		return Class(s), nil
	}
	return "", fmt.Errorf("%w %q (want interactive, batch, or background)", ErrUnknownClass, s)
}

// defaultClassWeights is the dispatch share each class gets under
// contention: per full scheduler round, up to 8 interactive dispatches
// for every 4 batch and 1 background.
var defaultClassWeights = map[Class]int{
	ClassInteractive: 8,
	ClassBatch:       4,
	ClassBackground:  1,
}

// agingPeriod is the intra-class aging knob: every agingPeriod-th
// dispatch from a class serves the class's oldest queued job instead of
// its smallest graph, so a huge graph behind an endless stream of small
// ones is still dispatched within a bounded number of its class's turns.
const agingPeriod = 8

// pickLocked chooses the next job by deficit round robin with unit cost:
// the cursor stays on a class while it has queued work and remaining
// deficit, and entering a class replenishes its deficit with its weight.
// A class that is skipped while empty loses nothing — its quantum is
// restored the moment the cursor reaches it with work queued — which is
// exactly the aging guarantee: from any cursor position, a newly queued
// job of class c waits at most the other classes' remaining quanta
// (bounded by the weight sum) before c is served. Returns nil when
// nothing is queued. Caller holds s.mu.
func (s *Scheduler) pickLocked() *Job {
	if s.queuedTotal == 0 {
		return nil
	}
	for {
		c := s.rrIdx
		if s.queues[c].Len() > 0 && s.deficit[c] > 0 {
			s.deficit[c]--
			return s.popClassLocked(c)
		}
		s.rrIdx = (s.rrIdx + 1) % numClasses
		s.deficit[s.rrIdx] = s.weights[s.rrIdx]
	}
}

// popClassLocked removes and returns the next job of class c: normally
// the smallest graph, but every agingPeriod-th pop takes the oldest
// queued job (the class FIFO's front) so no job starves within its
// class. The FIFO makes the aging pop O(log n) — scanning the heap for
// the oldest entry would stall every scheduler operation behind an O(n)
// walk under the lock on deep queues.
func (s *Scheduler) popClassLocked(c int) *Job {
	q := &s.queues[c]
	s.agePops[c]++
	var j *Job
	if s.agePops[c] >= agingPeriod && q.Len() > 1 {
		s.agePops[c] = 0
		j = s.fifos[c].Front().Value.(*Job)
		heap.Remove(q, j.heapIdx)
	} else {
		j = heap.Pop(q).(*Job)
	}
	s.fifos[c].Remove(j.fifoElem)
	j.fifoElem = nil
	s.queuedTotal--
	return j
}

// pushLocked queues j on its class queue (heap + arrival FIFO). Caller
// holds s.mu.
func (s *Scheduler) pushLocked(j *Job) {
	c := classRank(j.class)
	heap.Push(&s.queues[c], j)
	j.fifoElem = s.fifos[c].PushBack(j)
	s.queuedTotal++
}

// unqueueLocked removes a still-queued j from its class's heap and FIFO
// without publishing it. Caller holds s.mu; j.heapIdx must be valid.
func (s *Scheduler) unqueueLocked(j *Job) {
	c := classRank(j.class)
	heap.Remove(&s.queues[c], j.heapIdx)
	s.fifos[c].Remove(j.fifoElem)
	j.fifoElem = nil
	s.queuedTotal--
}

// escalateLocked raises j to class c when c is stronger than j's current
// class, requeueing a still-queued job onto the stronger queue.
// Coalescing calls this: the job serves its strongest waiter. Caller
// holds s.mu.
func (s *Scheduler) escalateLocked(j *Job, c Class) {
	if classRank(c) >= classRank(j.class) {
		return
	}
	if j.state == StateQueued && j.heapIdx >= 0 {
		s.unqueueLocked(j)
		j.class = c
		s.pushLocked(j)
		s.m.escalated.Add(1)
		return
	}
	j.class = c
}

// rank is classRank as a method (for call sites that read better with it).
func (c Class) rank() int { return classRank(c) }

// Event is one entry of a job's live event log, streamed to clients as
// NDJSON by GET /v1/jobs/{id}/events. Seq is the event's index in the
// log, so clients can resume a dropped stream without duplicates.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// Type is "state" (lifecycle transition), "phase" (solver entered a
	// new phase), "progress" (throttled counter update), or "result"
	// (terminal; always the last event).
	Type     string                   `json:"type"`
	State    State                    `json:"state,omitempty"`
	Phase    string                   `json:"phase,omitempty"`
	Progress *parcut.ProgressSnapshot `json:"progress,omitempty"`
	// Fraction is a pointer so a legitimate 0 ("just started") still
	// serializes; it is set on every phase/progress/result event.
	Fraction *float64 `json:"fraction,omitempty"`
	Value    *int64   `json:"value,omitempty"`
	InCut    []bool   `json:"in_cut,omitempty"`
	Trees    int      `json:"trees_scanned,omitempty"`
	Err      string   `json:"error,omitempty"`
	Terminal bool     `json:"terminal,omitempty"`
}

// fptr boxes a fraction for Event.Fraction.
func fptr(f float64) *float64 { return &f }

// maxJobEvents caps the phase/progress entries one job retains, so a
// pathological solve (millions of boost runs in one job) cannot grow the
// log without bound. State and terminal events always append; a capped
// log still ends with its result.
const maxJobEvents = 1024

// eventBytesEstimate is the per-event memory charged against the
// scheduler's HistoryBytes budget for retained finished jobs (an Event
// plus its heap-allocated ProgressSnapshot).
const eventBytesEstimate = 256

// progressEventInterval throttles counter-only progress events; phase
// transitions and lifecycle events are never throttled.
const progressEventInterval = 100 * time.Millisecond

// recordEvent appends ev to j's log and wakes streamers. limited marks
// phase/progress events, which stop appending once the log is full.
func (j *Job) recordEvent(ev Event, limited bool) {
	j.evMu.Lock()
	if limited && len(j.events) >= maxJobEvents {
		j.evMu.Unlock()
		return
	}
	ev.Seq = len(j.events)
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	j.events = append(j.events, ev)
	close(j.evWake)
	j.evWake = make(chan struct{})
	j.evMu.Unlock()
}

// Events returns a copy of the job's event log from seq `from` onward, a
// channel that is closed when another event is appended, and whether the
// log has already ended (its last event is terminal — nothing further
// will ever be appended, so waiting on the channel would block forever).
// A stream is complete when it has consumed an event with Terminal set
// or sees ended with no events left.
func (j *Job) Events(from int) (evs []Event, wake <-chan struct{}, ended bool) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	ended = len(j.events) > 0 && j.events[len(j.events)-1].Terminal
	return evs, j.evWake, ended
}

// onProgress is the solver hook: it runs on the job's solver goroutine at
// a cancellation seam each time the solve crosses a milestone. It feeds
// the phase-duration histograms and appends phase/progress events. It takes
// only the job's event mutex — never the scheduler lock — so the solver
// hot path cannot contend with Submit/Wait traffic.
func (s *Scheduler) onProgress(j *Job, ps parcut.ProgressSnapshot) {
	now := time.Now()
	j.evMu.Lock()
	if ps.Phase != j.evPhase {
		if j.evPhase != "" && !j.evPhaseAt.IsZero() {
			s.observePhaseLocked(j, j.evPhase, now.Sub(j.evPhaseAt))
		}
		j.evPhase, j.evPhaseAt = ps.Phase, now
		j.evMu.Unlock()
		j.recordEvent(Event{Type: "phase", Phase: ps.Phase, Progress: &ps, Fraction: fptr(ps.Fraction()), Time: now}, true)
		return
	}
	throttled := now.Sub(j.evLastProg) < progressEventInterval
	if !throttled {
		j.evLastProg = now
	}
	j.evMu.Unlock()
	if !throttled {
		j.recordEvent(Event{Type: "progress", Phase: ps.Phase, Progress: &ps, Fraction: fptr(ps.Fraction()), Time: now}, true)
	}
}

// closePhaseTimer attributes the tail of the job's current phase to the
// phase-duration histograms when the job reaches a terminal state.
func (s *Scheduler) closePhaseTimer(j *Job) {
	j.evMu.Lock()
	if j.evPhase != "" && !j.evPhaseAt.IsZero() {
		s.observePhaseLocked(j, j.evPhase, time.Since(j.evPhaseAt))
	}
	j.evPhase, j.evPhaseAt = "", time.Time{}
	j.evMu.Unlock()
}

// observePhaseLocked attributes d of solver wall time to the named phase:
// the {class, phase, engine} histogram (labeled with the job's dispatch
// class) and the job's own accounting for the slow-solve log. Caller
// holds j.evMu.
func (s *Scheduler) observePhaseLocked(j *Job, phase string, d time.Duration) {
	p, ok := phaseIndex(phase)
	if !ok {
		return
	}
	s.m.phase[j.metricClass][p][j.engineIdx].Observe(d)
	j.phaseNanos[p] += int64(d)
}
