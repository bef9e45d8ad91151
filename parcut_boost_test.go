package parcut_test

import (
	"testing"

	parcut "repro"
)

// TestBoostSeedDecomposition: run i of a Boost=k solve must equal run 0
// of a single solve seeded with BoostSeed(seed, i), and the boosted
// result must equal the deterministic reduction over those runs
// (smallest Value, ties to the lowest run index) — the contract
// BoostSeed documents for callers that split a boost themselves.
func TestBoostSeedDecomposition(t *testing.T) {
	g := parcut.RandomGraph(80, 320, 50, 11)
	const seed, k = 21, 5
	boosted, err := parcut.MinCut(g, parcut.Options{Seed: seed, Boost: k, WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}

	var merged parcut.Result
	for run := 0; run < k; run++ {
		r, err := parcut.MinCut(g, parcut.Options{Seed: parcut.BoostSeed(seed, run), WantPartition: true})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 || r.Value < merged.Value {
			merged = parcut.Result{Value: r.Value, InCut: r.InCut, TreesScanned: merged.TreesScanned + r.TreesScanned}
		} else {
			merged.TreesScanned += r.TreesScanned
		}
	}
	if boosted.Value != merged.Value || boosted.TreesScanned != merged.TreesScanned {
		t.Fatalf("boosted %+v, merged single runs %+v", boosted, merged)
	}
	for v := range boosted.InCut {
		if boosted.InCut[v] != merged.InCut[v] {
			t.Fatalf("partitions differ at vertex %d", v)
		}
	}
}

// TestBoostSeedAdditive: splitting a boost into chunks relies on
// BoostSeed(BoostSeed(s, a), b) == BoostSeed(s, a+b).
func TestBoostSeedAdditive(t *testing.T) {
	for _, s := range []int64{0, 1, -7, 1 << 40} {
		for a := 0; a < 5; a++ {
			for b := 0; b < 5; b++ {
				if got, want := parcut.BoostSeed(parcut.BoostSeed(s, a), b), parcut.BoostSeed(s, a+b); got != want {
					t.Fatalf("BoostSeed(BoostSeed(%d,%d),%d) = %d, want %d", s, a, b, got, want)
				}
			}
		}
	}
}

// TestBoostedPartitionAchievesValue: with Boost > 1 and WantPartition the
// returned partition must evaluate to exactly the returned value — the
// winning run's partition must survive the boost reduction intact.
func TestBoostedPartitionAchievesValue(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := parcut.RandomGraph(60, 240, 30, seed)
		res, err := parcut.MinCut(g, parcut.Options{Seed: seed, Boost: 4, WantPartition: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.InCut == nil {
			t.Fatal("no partition returned")
		}
		if cv := g.CutValue(res.InCut); cv != res.Value {
			t.Fatalf("seed %d: CutValue(InCut) = %d, Value = %d", seed, cv, res.Value)
		}
	}
}

// TestCanonicalPreservesGraph: Canonical must keep the cut structure (it
// only reorders edges) while normalizing the serialization.
func TestCanonicalPreservesGraph(t *testing.T) {
	g := parcut.NewGraph(4)
	for _, e := range [][3]int64{{3, 0, 2}, {1, 0, 3}, {2, 3, 4}, {1, 2, 1}} {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	c := g.Canonical()
	if c.N() != g.N() || c.M() != g.M() || c.TotalWeight() != g.TotalWeight() {
		t.Fatalf("canonical shape changed: n=%d m=%d w=%d", c.N(), c.M(), c.TotalWeight())
	}
	rg, err := parcut.MinCut(g, parcut.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := parcut.MinCut(c, parcut.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rg.Value != rc.Value {
		t.Fatalf("min cut changed under canonicalization: %d vs %d", rg.Value, rc.Value)
	}
}
