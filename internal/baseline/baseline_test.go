package baseline

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func TestStoerWagnerAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n := 2 + int(seed*5)%12
		g := gen.RandomConnected(n, n-1+int(seed*3)%(2*n), 9, seed)
		want, wantCut, err := BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		got, cut, err := StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: SW=%d brute=%d", seed, got, want)
		}
		if v := g.CutValue(cut); v != want {
			t.Fatalf("seed %d: SW partition value %d want %d", seed, v, want)
		}
		if v := g.CutValue(wantCut); v != want {
			t.Fatalf("seed %d: brute partition inconsistent", seed)
		}
	}
}

func TestStoerWagnerPlanted(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := gen.PlantedCut(10, 14, 3, seed)
		got, cut, err := StoerWagner(p.G)
		if err != nil {
			t.Fatal(err)
		}
		if got != p.CutValue {
			t.Fatalf("seed %d: SW=%d planted=%d", seed, got, p.CutValue)
		}
		// Must recover exactly the planted bipartition (it is unique).
		same := cut[0] == p.InCut[0]
		for v := range cut {
			if (cut[v] == p.InCut[v]) != same {
				t.Fatalf("seed %d: partition differs from planted", seed)
			}
		}
	}
}

func TestStoerWagnerDisconnected(t *testing.T) {
	g := gen.Disconnected(6, 7, 1)
	got, cut, err := StoerWagner(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("disconnected SW=%d want 0", got)
	}
	if v := g.CutValue(cut); v != 0 {
		t.Fatalf("partition crosses %d weight", v)
	}
}

func TestStoerWagnerParallelEdgesAndLoops(t *testing.T) {
	g := graph.New(3)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 3}, {0, 1, 4}, {1, 2, 2}, {1, 1, 99}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := StoerWagner(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("got %d want 2", got)
	}
}

func TestKargerSteinAgainstStoerWagner(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 6 + int(seed*7)%30
		g := gen.RandomConnected(n, 3*n, 12, seed+40)
		want, _, err := StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		got, cut, err := KargerStein(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d (n=%d): KS=%d SW=%d", seed, n, got, want)
		}
		if v := g.CutValue(cut); v != got {
			t.Fatalf("seed %d: KS partition value %d claimed %d", seed, v, got)
		}
	}
}

func TestKargerSteinDumbbell(t *testing.T) {
	p := gen.Dumbbell(8, 2, 3)
	got, _, err := KargerStein(p.G, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("KS=%d want 2", got)
	}
}

func TestBruteForceRejectsLarge(t *testing.T) {
	g := gen.RandomConnected(30, 60, 5, 1)
	if _, _, err := BruteForce(g); err == nil {
		t.Fatal("n=30 accepted")
	}
}

func TestTooSmallGraphs(t *testing.T) {
	g := graph.New(1)
	if _, _, err := StoerWagner(g); err == nil {
		t.Fatal("n=1 accepted by SW")
	}
	if _, _, err := solveNI(g); err == nil {
		t.Fatal("n=1 accepted by NagamochiIbaraki")
	}
	if _, _, err := KargerStein(g, 1); err == nil {
		t.Fatal("n=1 accepted by KS")
	}
	if _, _, err := BruteForce(g); err == nil {
		t.Fatal("n=1 accepted by brute")
	}
}
