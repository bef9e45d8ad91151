package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.AddEdge(0, 1, -4); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 1, 2); err != nil {
		t.Errorf("self-loop rejected: %v", err)
	}
	if g.M() != 2 || g.TotalWeight() != 7 {
		t.Errorf("m=%d total=%d", g.M(), g.TotalWeight())
	}
}

func TestTotalWeightGuard(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 1, MaxTotalWeight); err != nil {
		t.Fatalf("weight at cap rejected: %v", err)
	}
	if err := g.AddEdge(0, 1, 1); err == nil {
		t.Fatal("weight above cap accepted")
	}
	// A weight whose sum with the total wraps past MaxInt64 is above the
	// cap too.
	h := New(2)
	if err := h.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge(0, 1, math.MaxInt64); err == nil || h.TotalWeight() != 1 {
		t.Fatalf("weight MaxInt64 on total 1: err=%v, total %d", err, h.TotalWeight())
	}
}

func TestWeightedDegreesIgnoreLoops(t *testing.T) {
	g := New(3)
	must(t, g.AddEdge(0, 1, 4))
	must(t, g.AddEdge(1, 2, 6))
	must(t, g.AddEdge(2, 2, 100))
	deg := g.WeightedDegrees()
	want := []int64{4, 10, 6}
	for v, w := range want {
		if deg[v] != w {
			t.Errorf("deg[%d]=%d want %d", v, deg[v], w)
		}
	}
}

func TestCutValue(t *testing.T) {
	// Figure 1 of the paper: minimum cut of value 2.
	g := figure1Graph(t)
	// Shaded side from the figure: vertices {0,1,2} vs {3,4,5}.
	inCut := []bool{true, true, true, false, false, false}
	if got := g.CutValue(inCut); got != 2 {
		t.Errorf("figure 1 cut value = %d, want 2", got)
	}
}

// figure1Graph builds the example of paper Figure 1: 6 vertices, cut value
// 2 between the two shaded triangles.
func figure1Graph(t *testing.T) *Graph {
	t.Helper()
	g := New(6)
	must(t, g.AddEdge(0, 1, 3))
	must(t, g.AddEdge(0, 2, 3))
	must(t, g.AddEdge(1, 2, 2))
	must(t, g.AddEdge(3, 4, 1))
	must(t, g.AddEdge(3, 5, 2))
	must(t, g.AddEdge(4, 5, 1))
	must(t, g.AddEdge(2, 3, 1))
	must(t, g.AddEdge(1, 4, 1))
	return g
}

func TestBuildAdj(t *testing.T) {
	g := New(4)
	must(t, g.AddEdge(0, 1, 5))
	must(t, g.AddEdge(1, 2, 7))
	must(t, g.AddEdge(2, 2, 9)) // loop: excluded from adjacency
	must(t, g.AddEdge(0, 1, 3)) // parallel edge: kept
	adj := g.BuildAdj()
	if adj.Degree(0) != 2 || adj.Degree(1) != 3 || adj.Degree(2) != 1 || adj.Degree(3) != 0 {
		t.Fatalf("degrees: %d %d %d %d", adj.Degree(0), adj.Degree(1), adj.Degree(2), adj.Degree(3))
	}
	var w0 int64
	for i := adj.Off[0]; i < adj.Off[1]; i++ {
		if adj.Nbr[i] != 1 {
			t.Errorf("vertex 0 neighbor %d, want 1", adj.Nbr[i])
		}
		w0 += adj.W[i]
	}
	if w0 != 8 {
		t.Errorf("vertex 0 incident weight %d, want 8", w0)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g := figure1Graph(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.TotalWeight() != g.TotalWeight() {
		t.Fatalf("round trip mismatch: n=%d m=%d w=%d", g2.N(), g2.M(), g2.TotalWeight())
	}
	for i, e := range g.Edges() {
		if g2.Edge(i) != e {
			t.Fatalf("edge %d mismatch: %v vs %v", i, g2.Edge(i), e)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"e 0 1 5\n",             // edge before problem line
		"p cut 2 1\ne 0 5 1\n",  // out of range
		"p cut 2 1\nx 0 1 1\n",  // unknown record
		"p cut 2 1\ne 0 1 -2\n", // negative weight
		"p cut zz 1\ne 0 1 1\n", // malformed problem line
		"",                      // empty
		"c only a comment\n",    // no problem line
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestClone(t *testing.T) {
	g := figure1Graph(t)
	c := g.Clone()
	must(t, c.AddEdge(0, 5, 9))
	if g.M() == c.M() {
		t.Fatal("clone shares edge storage")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
