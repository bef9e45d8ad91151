package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
)

// fuzzGraph decodes data into a multigraph on 2 to 12 vertices. data[0]
// picks n; bit 0 of data[1] selects heavy mode, which shifts every weight
// left by 30 bits so the total approaches graph.MaxTotalWeight; each
// following byte triple is one edge (u, v, w) with u and v taken mod n and
// w in [1, 256]. Self-loops, parallel edges, isolated vertices and
// disconnected graphs all decode as they are. An edge that would push the
// total past MaxTotalWeight is dropped. ok is false when data is too short
// to name n and the mode.
func fuzzGraph(data []byte) (g *graph.Graph, heavy, ok bool) {
	if len(data) < 2 {
		return nil, false, false
	}
	n := 2 + int(data[0])%11
	heavy = data[1]&1 == 1
	g = graph.New(n)
	for i := 2; i+2 < len(data); i += 3 {
		w := 1 + int64(data[i+2])
		if heavy {
			w <<= 30
		}
		// AddEdge rejects only weights past the total bound here.
		_ = g.AddEdge(int(data[i])%n, int(data[i+1])%n, w)
	}
	return g, heavy, true
}

// FuzzEnginesAgree runs every engine, with a partition
// requested, on fuzzed multigraphs of at most 12 vertices and checks each
// against baseline.BruteForce: an exact engine returns the brute-force
// value, a packed (Monte Carlo) engine never returns less, every
// partition is non-trivial and weighs exactly the returned value, and
// geissmann and andersonblelloch, which pack the same trees and search
// them exactly, return the same value and tree count. Their partitions
// may differ where a tree crosses two minimum cuts (the last seed): the
// two searches break that tie differently.
func FuzzEnginesAgree(f *testing.F) {
	// A triangle with a doubled edge and a self-loop.
	f.Add(int64(1), []byte{1, 0, 0, 1, 3, 1, 2, 5, 2, 0, 2, 0, 1, 4, 1, 1, 9})
	// Two components joined by nothing: the minimum cut is 0.
	f.Add(int64(2), []byte{4, 0, 0, 1, 7, 1, 2, 7, 3, 4, 1, 4, 5, 2})
	// Heavy mode: eight edges of 2^38 fill 2^41 of weight, so the last
	// four are dropped at the 2^40 bound.
	f.Add(int64(3), []byte{2, 1, 0, 1, 255, 1, 2, 255, 2, 3, 255, 3, 0, 255, 0, 2, 255, 1, 3, 255, 0, 0, 255, 2, 2, 255})
	// Twelve vertices: a cycle with chords, a doubled chord and a
	// self-loop.
	f.Add(int64(-7), []byte{
		10, 2, 0, 1, 3, 1, 2, 4, 2, 3, 1, 3, 4, 6, 4, 5, 2, 5, 6, 8,
		6, 7, 1, 7, 8, 3, 8, 9, 5, 9, 10, 2, 10, 11, 7, 11, 0, 4, 0, 6,
		1, 3, 9, 2, 3, 9, 2, 5, 5, 0,
	})
	// Two vertices and no edges.
	f.Add(int64(0), []byte{0, 0})
	// Two minimum cuts of weight 3: the edge 7-0, or the two parallel
	// 5-7 edges of weights 2 and 1. geissmann returns the second and
	// andersonblelloch the first.
	f.Add(int64(-105), []byte{
		10, 0, 0, 1, 48, 0, 2, 48, 0, 0, 48, 3, 4, 48, 4, 5, 48, 5, 6, 48,
		5, 7, 1, 7, 8, 48, 7, 9, 48, 7, 0, 2, 10, 0, 48, 11, 0, 48, 5, 7, 0,
	})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		g, heavy, ok := fuzzGraph(data)
		if !ok {
			return
		}
		want, _, err := baseline.BruteForce(g)
		if err != nil {
			t.Fatalf("BruteForce: %v", err)
		}
		where := fmt.Sprintf("n=%d m=%d heavy=%v seed=%d", g.N(), g.M(), heavy, seed)
		results := map[string]core.Result{}
		for _, name := range Names() {
			e, _ := Lookup(name)
			res, err := e.Solve(ctx, g, core.Options{Seed: seed, WantPartition: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, where, err)
			}
			if e.Caps().Exact && res.Value != want {
				t.Fatalf("%s on %s: value %d, brute force %d", name, where, res.Value, want)
			}
			if res.Value < want {
				t.Fatalf("%s on %s: value %d below the brute-force minimum %d", name, where, res.Value, want)
			}
			checkPartition(t, g, name+" on "+where, res)
			results[name] = res
		}
		if geis, ab := results["geissmann"], results["andersonblelloch"]; geis.Value != ab.Value || geis.TreesScanned != ab.TreesScanned {
			t.Fatalf("%s: geissmann value %d from %d trees, andersonblelloch %d from %d",
				where, geis.Value, geis.TreesScanned, ab.Value, ab.TreesScanned)
		}
	})
}
