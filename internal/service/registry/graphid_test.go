package registry

import (
	"testing"

	parcut "repro"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// TestGraphIDGolden pins the content IDs of fixed generator graphs, as
// recorded before the text codec stopped using fmt: an ID is the SHA-256
// of the canonical serialization, so a change to Canonical's order or to
// Write's bytes would re-address every stored graph.
func TestGraphIDGolden(t *testing.T) {
	for _, c := range []struct{ spec, id string }{
		{"random:n=2000,m=8000,w=100", "sha256:a33d6acb9785d6a9b4c60a5002fec37e70177943c8184ca4ce9ead521d474da6"},
		{"random:n=520,m=1040,w=100", "sha256:d0cdc7474c85125e34a6887feffc9a51d8cb60732d817a76054d9693f07be53b"},
		{"planted:na=30,nb=26,k=4", "sha256:467f88d565b25a8490b4b3bbdbbf3367b230664f54bcb9480e243f58de840d36"},
		{"dumbbell:n=12,bridge=3", "sha256:9297c685ea07ecdfdec5ae7360f3303b04a10da001e3943912d2ff1cf12f8fcc"},
		{"cycle:n=128,w=50", "sha256:e0aedc3bcce008ee3a30786516ae2458c47df4e87e769acb605bf310cdddd7af"},
		{"disconnected:na=5,nb=6", "sha256:9f01bb7b90f29aa468e99e0f9e32948590c2b2fbf45ca282c377f3ee97c6a8b7"},
	} {
		g, _, err := gen.FromSpec(c.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if id := graphID(t, g); id != c.id {
			t.Errorf("%s: GraphID %s, want %s", c.spec, id, c.id)
		}
	}
	// Weights at the total bound, a self-loop and the smallest graphs.
	big := graph.New(3)
	for _, err := range []error{big.AddEdge(2, 0, graph.MaxTotalWeight-7), big.AddEdge(1, 1, 5), big.AddEdge(0, 2, 2)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]struct {
		g  *graph.Graph
		id string
	}{
		"max weight": {big, "sha256:90fd4b12a5ececa8aaa7bbe3b1b97a057496144812649f9535f03a5d5adf7041"},
		"n=0":        {graph.New(0), "sha256:eac16dceaba88ac79cb2bc1022c7de22e58e7d8e45c555ade23bb9bd1abd0f57"},
		"n=1":        {graph.New(1), "sha256:4225b8eda5a61f5eab1fd1ba637435540e2cd2617c8869219b02551dd8ac1a6c"},
	} {
		if id := graphID(t, c.g); id != c.id {
			t.Errorf("%s: GraphID %s, want %s", name, id, c.id)
		}
	}
}

// graphID is GraphID of g, built edge by edge so that no reader is
// involved.
func graphID(t *testing.T, g *graph.Graph) string {
	t.Helper()
	pg := parcut.NewGraph(g.N())
	for _, e := range g.Edges() {
		if err := pg.AddEdge(int(e.U), int(e.V), e.W); err != nil {
			t.Fatal(err)
		}
	}
	id, err := GraphID(pg)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
