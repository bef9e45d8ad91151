package parcut

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestProgressSnapshotAfterSolve: a completed solve leaves the sink's
// counters consistent with the result — runs complete, trees scanned
// matching Result.TreesScanned, packing rounds and bough phases recorded,
// fraction saturated at 1.
func TestProgressSnapshotAfterSolve(t *testing.T) {
	g := RandomGraph(80, 300, 20, 3)
	var events int
	var mu sync.Mutex
	p := NewProgress(func(ProgressSnapshot) {
		mu.Lock()
		events++
		mu.Unlock()
	})
	res, err := MinCut(g, Options{Seed: 1, Boost: 2, Progress: p})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.RunsDone != 2 || s.RunsTotal != 2 {
		t.Fatalf("runs = %d/%d, want 2/2", s.RunsDone, s.RunsTotal)
	}
	if s.TreesScanned != int64(res.TreesScanned) || s.TreesTotal != s.TreesScanned {
		t.Fatalf("trees = %d/%d, Result.TreesScanned = %d", s.TreesScanned, s.TreesTotal, res.TreesScanned)
	}
	if s.PackRoundsDone == 0 || s.PackRoundsDone > s.PackRoundsTotal {
		t.Fatalf("pack rounds = %d/%d, want 0 < done <= total", s.PackRoundsDone, s.PackRoundsTotal)
	}
	if s.BoughPhasesDone == 0 || s.BoughsProcessed == 0 {
		t.Fatalf("bough phases = %d, boughs = %d, want both > 0", s.BoughPhasesDone, s.BoughsProcessed)
	}
	if f := s.Fraction(); f != 1 {
		t.Fatalf("Fraction = %v after completion, want 1", f)
	}
	mu.Lock()
	defer mu.Unlock()
	if events == 0 {
		t.Fatal("progress hook never fired")
	}
}

// parkAt runs a solve on a width-1 executor with a Progress hook that
// blocks the first time cond matches, cancels the context while the
// solver is parked at that seam, releases it, and returns the solve's
// error and the final snapshot. The solver must unwind with a
// cancellation error without doing the remaining phases' work.
func parkAt(t *testing.T, g *Graph, opt Options, cond func(ProgressSnapshot) bool) (error, ProgressSnapshot) {
	t.Helper()
	opt.Executor = NewExecutor(1)
	defer opt.Executor.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p := NewProgress(func(ps ProgressSnapshot) {
		if cond(ps) {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	})
	opt.Progress = p
	done := make(chan error, 1)
	go func() {
		_, err := MinCutContext(ctx, g, opt)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("solver never reached the park point")
	}
	cancel()
	close(release)
	select {
	case err := <-done:
		return err, p.Snapshot()
	case <-time.After(60 * time.Second):
		t.Fatal("solver did not unwind after cancellation at a phase seam")
		return nil, ProgressSnapshot{}
	}
}

// TestCancelParkedInPackingUnwinds pins the solve at the moment it enters
// the packing phase; after cancellation it must unwind from inside
// packing (the new per-round context checks) without packing a single
// round.
func TestCancelParkedInPackingUnwinds(t *testing.T) {
	g := RandomGraph(300, 1200, 50, 7)
	err, s := parkAt(t, g, Options{Seed: 1},
		func(ps ProgressSnapshot) bool { return ps.Phase == "packing" })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.PackRoundsDone != 0 {
		t.Fatalf("PackRoundsDone = %d after cancel at packing entry, want 0", s.PackRoundsDone)
	}
	if s.TreesScanned != 0 {
		t.Fatalf("TreesScanned = %d, want 0 (scan phase never ran)", s.TreesScanned)
	}
}

// TestCancelParkedAtScanEntryUnwinds pins the solve at the scan phase
// boundary (packing complete, no tree scanned yet); cancellation must
// skip every tree scan.
func TestCancelParkedAtScanEntryUnwinds(t *testing.T) {
	g := RandomGraph(300, 1200, 50, 7)
	err, s := parkAt(t, g, Options{Seed: 1},
		func(ps ProgressSnapshot) bool { return ps.Phase == "scan" })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.TreesScanned != 0 {
		t.Fatalf("TreesScanned = %d after cancel at scan entry, want 0", s.TreesScanned)
	}
	if s.TreesTotal == 0 {
		t.Fatal("TreesTotal = 0: packing did not publish its trees before the scan boundary")
	}
}

// TestCancelParkedAtBoughPhaseUnwinds pins the solve inside a tree scan,
// right after its first bough phase completes (the decomp/respect seam);
// cancellation must unwind within one phase instead of finishing the
// scan's remaining phases and trees.
func TestCancelParkedAtBoughPhaseUnwinds(t *testing.T) {
	g := RandomGraph(300, 1200, 50, 7)
	err, s := parkAt(t, g, Options{Seed: 1},
		func(ps ProgressSnapshot) bool { return ps.BoughPhasesDone >= 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One phase was done when we parked; the documented cancellation
	// latency is a single phase, so at most one more may slip in on the
	// current tree before the seam check fires.
	if s.BoughPhasesDone > 2 {
		t.Fatalf("BoughPhasesDone = %d, want <= 2 (prompt unwind)", s.BoughPhasesDone)
	}
	if s.TreesScanned >= s.TreesTotal {
		t.Fatalf("all %d trees scanned despite mid-scan cancellation", s.TreesScanned)
	}
}
