// Package progress is the solver's live progress sink: a small set of
// atomic counters that the algorithm phases update at exactly the seams
// where cooperative cancellation is already checked — between boost runs,
// around the packing rounds, between spanning-tree scans, and between
// bough phases. Instrumentation is write-only from the solver's point of
// view: a Sink never feeds anything back into the computation, so an
// attached sink cannot change the result at any pool width.
//
// A tree counts toward TreesDone once its search has succeeded and the
// scan phase has taken it as one of the packing's returned trees. On an
// executor of width ≥ 2 a tree's search can start and finish while
// packing still runs; it is credited when the scan phase begins, and a
// tree of a packing guess that was rejected is never credited (its bough
// phases, though, count in BoughPhasesDone).
//
// A nil *Sink is valid and records nothing, mirroring *wd.Meter, so every
// code path can thread a sink unconditionally.
package progress

import "sync/atomic"

// Phase identifies where in the pipeline a solve currently is.
type Phase int32

const (
	// PhaseNone is the zero phase: the solve has not started.
	PhaseNone Phase = iota
	// PhasePacking covers the tree-packing step (paper §2.1 / Lemma 1):
	// skeleton sampling and the greedy MST packing rounds.
	PhasePacking
	// PhaseScan covers the per-tree 2-respecting cut searches (paper §4):
	// bough decomposition and the Minimum Path batches.
	PhaseScan
	// PhaseContract covers the contraction loop of the exact engine
	// (maximum-adjacency passes with Nagamochi–Ibaraki contraction). The
	// paper's solver never enters it. There the tree counters count
	// merged supernodes: the total is n−1, one is done per supernode a
	// pass folds into another, and a completed solve reads done ==
	// total. Its "contract" span carries the number of passes.
	PhaseContract
)

// String returns the phase's wire name.
func (p Phase) String() string {
	switch p {
	case PhasePacking:
		return "packing"
	case PhaseScan:
		return "scan"
	case PhaseContract:
		return "contract"
	default:
		return "none"
	}
}

// Snapshot is a point-in-time copy of a sink's counters. Totals are the
// planned amounts known so far; they grow as boost runs start and as
// packing attempts add rounds, so a done/total fraction can dip when a
// phase re-plans (e.g. the packing estimate loop rejects a guess).
type Snapshot struct {
	// Phase is the pipeline stage the solve is currently in.
	Phase Phase
	// RunsDone / RunsTotal count completed and planned boost runs.
	RunsDone, RunsTotal int64
	// PackRoundsDone / PackRoundsTotal count greedy packing rounds across
	// all packing attempts of the solve.
	PackRoundsDone, PackRoundsTotal int64
	// TreesDone / TreesTotal count completed and planned spanning-tree
	// scans, accumulated across boost runs; in PhaseContract, merged
	// supernodes out of n−1.
	TreesDone, TreesTotal int64
	// BoughPhasesDone counts completed bough phases across all tree scans.
	BoughPhasesDone int64
	// BoughsProcessed counts boughs handled by those phases.
	BoughsProcessed int64
}

// Sink accumulates live solve progress. All updates are atomic; a Sink
// may be read (Snapshot) concurrently with the solve it instruments. One
// Sink instruments one solve at a time — attach a fresh one per job.
//
// The zero value is ready to use. A nil *Sink is valid and records
// nothing.
type Sink struct {
	phase      atomic.Int32
	runsDone   atomic.Int64
	runsTotal  atomic.Int64
	packDone   atomic.Int64
	packTotal  atomic.Int64
	treesDone  atomic.Int64
	treesTotal atomic.Int64
	boughPh    atomic.Int64
	boughs     atomic.Int64

	// Notify, when non-nil, is called after phase transitions and coarse
	// milestones (run, tree, and bough-phase completions) — never on the
	// per-round hot path. It runs on a solver goroutine, so it must be
	// cheap and must not call back into the solve, and tree searches on
	// parallel lanes call it concurrently; set it before the solve starts
	// and do not change it afterwards. Because every call
	// site sits at a cooperative-cancellation seam, a Notify that blocks
	// parks the solve at that seam (tests use this to pin a job inside a
	// chosen phase deterministically).
	Notify func()
}

func (s *Sink) notify() {
	if s.Notify != nil {
		s.Notify()
	}
}

// EnterPhase records a phase transition and notifies.
func (s *Sink) EnterPhase(p Phase) {
	if s == nil {
		return
	}
	s.phase.Store(int32(p))
	s.notify()
}

// SetRuns records the planned number of boost runs.
func (s *Sink) SetRuns(total int64) {
	if s == nil {
		return
	}
	s.runsTotal.Store(total)
}

// RunDone records one completed boost run and notifies.
func (s *Sink) RunDone() {
	if s == nil {
		return
	}
	s.runsDone.Add(1)
	s.notify()
}

// AddPackRounds grows the planned packing-round total: each packing
// attempt (estimate guess) plans `rounds` more greedy MST rounds.
func (s *Sink) AddPackRounds(rounds int64) {
	if s == nil {
		return
	}
	s.packTotal.Add(rounds)
}

// PackRoundDone records one completed packing round. It does not notify:
// rounds are the inner loop of the packing phase, and per-round callbacks
// would put a hook on the hot path.
func (s *Sink) PackRoundDone() {
	if s == nil {
		return
	}
	s.packDone.Add(1)
}

// AddTrees grows the planned spanning-tree-scan total (per boost run, as
// each packing completes).
func (s *Sink) AddTrees(total int64) {
	if s == nil {
		return
	}
	s.treesTotal.Add(total)
}

// TreeDone records one completed spanning-tree scan of the accepted
// packing and notifies.
func (s *Sink) TreeDone() {
	if s == nil {
		return
	}
	s.treesDone.Add(1)
	s.notify()
}

// AddBoughs records `boughs` boughs entering processing (called by the
// decomposition as it discovers them). It does not notify; the phase
// completion that follows does.
func (s *Sink) AddBoughs(boughs int) {
	if s == nil {
		return
	}
	s.boughs.Add(int64(boughs))
}

// BoughPhaseDone records one completed bough phase and notifies.
func (s *Sink) BoughPhaseDone() {
	if s == nil {
		return
	}
	s.boughPh.Add(1)
	s.notify()
}

// Phase returns the current phase.
func (s *Sink) Phase() Phase {
	if s == nil {
		return PhaseNone
	}
	return Phase(s.phase.Load())
}

// Snapshot copies the counters. Individual fields are loaded atomically;
// the snapshot as a whole is not a consistent cut of a running solve,
// which is fine for progress reporting.
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		Phase:           Phase(s.phase.Load()),
		RunsDone:        s.runsDone.Load(),
		RunsTotal:       s.runsTotal.Load(),
		PackRoundsDone:  s.packDone.Load(),
		PackRoundsTotal: s.packTotal.Load(),
		TreesDone:       s.treesDone.Load(),
		TreesTotal:      s.treesTotal.Load(),
		BoughPhasesDone: s.boughPh.Load(),
		BoughsProcessed: s.boughs.Load(),
	}
}
