package parcut

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestEnginesList: the public surface reports the built-in engines.
func TestEnginesList(t *testing.T) {
	want := []string{"geissmann", "stoerwagner", "andersonblelloch"}
	if got := Engines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
}

// TestEngineOptionThreadsThrough: Options.Engine routes the solve to the
// named backend, and every backend agrees on the value. A boosted solve
// on a non-decomposable engine collapses to one run.
func TestEngineOptionThreadsThrough(t *testing.T) {
	g := RandomGraph(60, 240, 20, 11)
	ref, err := MinCut(g, Options{Seed: 1, WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"andersonblelloch", "stoerwagner", "auto"} {
		res, err := MinCut(g, Options{Seed: 1, WantPartition: true, Engine: name, Boost: 3})
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if res.Value != ref.Value {
			t.Fatalf("engine %q: value %d, default engine found %d", name, res.Value, ref.Value)
		}
		if v := g.CutValue(res.InCut); v != res.Value {
			t.Fatalf("engine %q: partition re-evaluates to %d, want %d", name, v, res.Value)
		}
	}
	// Karger–Stein is an internal/baseline oracle, not a served engine.
	for _, name := range []string{"edmondskarp", "kargerstein"} {
		if _, err := MinCut(g, Options{Engine: name}); err == nil {
			t.Fatalf("unknown engine %q accepted", name)
		}
	}
}

// TestBoostCollapsesOnExactEngine: progress accounting proves the boost
// loop ran once — repeating a deterministic exact solve is wasted work, so
// the capability gate must collapse Boost to a single run.
func TestBoostCollapsesOnExactEngine(t *testing.T) {
	g := RandomGraph(40, 160, 20, 13)
	p := NewProgress(nil)
	if _, err := MinCut(g, Options{Seed: 1, Boost: 4, Engine: "stoerwagner", Progress: p}); err != nil {
		t.Fatal(err)
	}
	if s := p.Snapshot(); s.RunsTotal != 1 || s.RunsDone != 1 {
		t.Fatalf("runs = %d/%d with boost 4 on an exact engine, want 1/1", s.RunsDone, s.RunsTotal)
	}
}

// TestCancelParkedInContractStoerWagner parks the promoted Stoer–Wagner
// engine mid-phase (the same blocking-Notify harness the paper solver's
// seam tests use), cancels, and requires a prompt unwind with the
// contraction left visibly unfinished.
func TestCancelParkedInContractStoerWagner(t *testing.T) {
	g := RandomGraph(300, 1200, 50, 7)
	err, s := parkAt(t, g, Options{Seed: 1, Engine: "stoerwagner"},
		func(ps ProgressSnapshot) bool { return ps.Phase == "contract" && ps.TreesScanned >= 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Phase != "contract" {
		t.Fatalf("final phase = %q, want contract", s.Phase)
	}
	// Parked after the first contraction phase; the per-phase ctx check
	// must stop the loop long before its n-1 phases finish.
	if s.TreesScanned >= s.TreesTotal {
		t.Fatalf("contraction ran to completion (%d/%d) despite cancellation", s.TreesScanned, s.TreesTotal)
	}
}

// TestCancelParkedInScanAndersonBlelloch parks the Anderson–Blelloch
// engine at its new phase seam — a completed heavy-path sweep inside a
// tree scan (reported through the bough-phase counters) — cancels, and
// requires a prompt unwind: the seam check between heavy paths must stop
// the remaining paths and trees.
func TestCancelParkedInScanAndersonBlelloch(t *testing.T) {
	g := RandomGraph(200, 800, 50, 7)
	err, s := parkAt(t, g, Options{Seed: 1, Engine: "andersonblelloch"},
		func(ps ProgressSnapshot) bool { return ps.Phase == "scan" && ps.BoughPhasesDone >= 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Phase != "scan" {
		t.Fatalf("final phase = %q, want scan", s.Phase)
	}
	// Parked after one heavy path; at most the in-flight path may finish
	// before the per-path ctx check fires.
	if s.BoughPhasesDone > 2 {
		t.Fatalf("BoughPhasesDone = %d, want <= 2 (prompt unwind)", s.BoughPhasesDone)
	}
	if s.TreesScanned >= s.TreesTotal {
		t.Fatalf("all %d trees scanned despite mid-scan cancellation", s.TreesTotal)
	}
}
