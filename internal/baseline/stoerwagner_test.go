package baseline

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/trace"
)

// stoerWagnerGolden is the FNV-1a digest TestStoerWagnerGolden computes.
// It moves only if some (Value, InCut) does: a wrong value, or a
// different tie-break among equal maximum-adjacency weights or equal
// cuts of the phase, which returns a different side.
const stoerWagnerGolden = uint64(0xeebc8a59d486404e)

// TestStoerWagnerGolden pins StoerWagner's result bit for bit, the
// returned side included: the brute-force and cross-engine tests compare
// values only, and the width test compares the engine with itself, so a
// rewrite that broke a tie differently would pass them all. The graphs:
// the cutbench dense and sparse workloads' shapes (random n=256,
// m=8192 and n=520, m=1040, w≤100), a 256-cycle of equal weights where
// every phase ties, unit-weight random graphs, and small random
// multigraphs with self-loops, parallel copies and isolated vertices,
// one of them disconnected.
func TestStoerWagnerGolden(t *testing.T) {
	t.Parallel()
	h := fnv.New64a()
	graphs := 0
	record := func(g *graph.Graph) {
		v, inCut, err := StoerWagner(g)
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
		bits := make([]byte, len(inCut))
		for i, in := range inCut {
			if in {
				bits[i] = 1
			}
		}
		h.Write(bits)
		graphs++
	}
	for i := int64(0); i < 2; i++ {
		record(gen.RandomConnected(256, 8192, 100, 1+i))
		record(gen.RandomConnected(520, 1040, 100, 1+i))
	}
	ring := make([]int64, 256)
	for i := range ring {
		ring[i] = 5
	}
	record(gen.Cycle(ring).G)
	for i, n := range []int{17, 64, 150} {
		record(gen.RandomConnected(n, 3*n, 1, int64(30+i)))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 12; i++ {
		n := 2 + rng.Intn(40)
		g := graph.New(n)
		// The last vertex of every fourth graph stays isolated, and graph
		// 5 is two halves with no edge between them.
		span := n
		if i%4 == 0 && n > 2 {
			span = n - 1
		}
		for e := n + rng.Intn(3*n); e > 0; e-- {
			u, v := rng.Intn(span), rng.Intn(span)
			if i == 5 && (u < n/2) != (v < n/2) {
				continue
			}
			w := int64(1 + rng.Intn(3))
			copies := 1 + rng.Intn(3)
			if rng.Intn(5) == 0 {
				v = u
			}
			for ; copies > 0; copies-- {
				if err := g.AddEdge(u, v, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		record(g)
	}
	if got := h.Sum64(); got != stoerWagnerGolden {
		t.Fatalf("digest of %d results = %#x, want %#x", graphs, got, stoerWagnerGolden)
	}
}

// TestStoerWagnerAllocs: a solve allocates a fixed set of slices, so the
// count does not grow with n. Per-phase allocation would show as a count
// that rises from n = 64 to n = 256.
func TestStoerWagnerAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		g := gen.RandomConnected(n, n*n/8, 100, 42)
		return testing.AllocsPerRun(3, func() {
			if _, _, err := StoerWagnerContext(context.Background(), g, nil, nil, trace.SpanRef{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(256)
	if small != large || large > 10 {
		t.Fatalf("allocations per solve: %v at n=64, %v at n=256; want the same count, at most 10", small, large)
	}
}
