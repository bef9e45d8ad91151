package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/trace"
	"repro/internal/wd"
)

// TestFigure1Example: the running example of paper Figure 1 has minimum
// cut 2.
func TestFigure1Example(t *testing.T) {
	g := graph.New(6)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 3}, {0, 2, 3}, {1, 2, 2}, {3, 4, 1}, {3, 5, 2}, {4, 5, 1}, {2, 3, 1}, {1, 4, 1}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	res, err := MinCut(g, Options{Seed: 1, WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("figure 1 min cut = %d, want 2", res.Value)
	}
	if got := g.CutValue(res.InCut); got != 2 {
		t.Fatalf("partition value %d", got)
	}
}

// TestMinCutAgreesWithStoerWagner is experiment E8: end-to-end agreement
// on seeded random graphs.
func TestMinCutAgreesWithStoerWagner(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n := 8 + int(seed*13)%60
		mm := 2*n + int(seed*7)%(4*n)
		g := gen.RandomConnected(n, mm, 16, seed)
		want, _, err := baseline.StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MinCut(g, Options{Seed: seed * 17, WantPartition: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != want {
			t.Fatalf("seed %d (n=%d m=%d): MinCut=%d StoerWagner=%d", seed, n, mm, res.Value, want)
		}
		if got := g.CutValue(res.InCut); got != res.Value {
			t.Fatalf("seed %d: partition value %d claimed %d", seed, got, res.Value)
		}
	}
}

func TestMinCutPlanted(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := gen.PlantedCut(20, 25, 4, seed)
		res, err := MinCut(p.G, Options{Seed: seed + 5, WantPartition: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != p.CutValue {
			t.Fatalf("seed %d: got %d want planted %d", seed, res.Value, p.CutValue)
		}
		// Unique planted cut: partitions must coincide up to complement.
		same := res.InCut[0] == p.InCut[0]
		for v := range res.InCut {
			if (res.InCut[v] == p.InCut[v]) != same {
				t.Fatalf("seed %d: partition differs from planted", seed)
			}
		}
	}
}

func TestMinCutDumbbellAndCycle(t *testing.T) {
	d := gen.Dumbbell(9, 4, 2)
	res, err := MinCut(d.G, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Fatalf("dumbbell: %d want 4", res.Value)
	}
	c := gen.Cycle([]int64{7, 3, 9, 2, 8, 5})
	res, err = MinCut(c.G, Options{Seed: 4, WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 5 {
		t.Fatalf("cycle: %d want 5", res.Value)
	}
}

func TestMinCutDisconnected(t *testing.T) {
	g := gen.Disconnected(8, 9, 7)
	res, err := MinCut(g, Options{Seed: 1, WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("disconnected: %d want 0", res.Value)
	}
	if got := g.CutValue(res.InCut); got != 0 {
		t.Fatalf("partition crosses weight %d", got)
	}
	// Partition must be proper: both sides nonempty.
	any, all := false, true
	for _, b := range res.InCut {
		any = any || b
		all = all && b
	}
	if !any || all {
		t.Fatal("partition is not proper")
	}
}

func TestMinCutTinyGraphs(t *testing.T) {
	g := graph.New(2)
	if err := g.AddEdge(0, 1, 9); err != nil {
		t.Fatal(err)
	}
	res, err := MinCut(g, Options{Seed: 2, WantPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 9 {
		t.Fatalf("K2: %d want 9", res.Value)
	}
	if _, err := MinCut(graph.New(1), Options{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := MinCut(graph.New(0), Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestMinCutDeterministicInSeed(t *testing.T) {
	g := gen.RandomConnected(40, 160, 12, 31)
	a, err := MinCut(g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinCut(g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.TreesScanned != b.TreesScanned || a.Estimate != b.Estimate {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestMinCutMeterAccumulates(t *testing.T) {
	g := gen.RandomConnected(64, 256, 8, 9)
	var m wd.Meter
	if _, err := MinCut(g, Options{Seed: 11, Meter: &m}); err != nil {
		t.Fatal(err)
	}
	if m.Work() == 0 || m.Depth() == 0 {
		t.Fatalf("meter empty: work=%d depth=%d", m.Work(), m.Depth())
	}
	if m.Depth() >= m.Work() {
		t.Fatalf("depth %d should be far below work %d", m.Depth(), m.Work())
	}
}

// TestSolveRejectsWrongWitness: the pipeline re-weighs every partition it
// returns, so a per-tree search whose witness does not achieve the value
// it reported fails the solve instead of serving a wrong partition.
func TestSolveRejectsWrongWitness(t *testing.T) {
	// Every weighted degree of this cycle is at least 5, so the fake's
	// value 1 wins and its witness, the empty side weighing 0, is used.
	g := gen.Cycle([]int64{2, 3, 4, 5, 6, 7, 8, 9}).G
	wrong := func(g *graph.Graph, _ []int64, _ *par.Pool) TreeSearch {
		return func(context.Context, []int32, *wd.Meter, *progress.Sink, trace.SpanRef) (int64, Witness, error) {
			return 1, func(*wd.Meter) ([]bool, error) { return make([]bool, g.N()), nil }, nil
		}
	}
	_, err := Solve(context.Background(), g, Options{Seed: 1, WantPartition: true}, wrong)
	if err == nil || !strings.Contains(err.Error(), "partition weighs 0, reported value 1") {
		t.Fatalf("wrong witness: err = %v, want a partition mismatch", err)
	}
}
