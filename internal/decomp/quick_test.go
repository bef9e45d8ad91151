package decomp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tree"
	"repro/internal/wd"
)

type quickTree struct {
	Seed int64
	N    uint16
}

// Generate implements quick.Generator.
func (quickTree) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickTree{Seed: rng.Int63(), N: uint16(rng.Intn(2000))})
}

// TestDecomposePhaseBound is the named Lemma 7 invariant of the experiment
// index (E4): for arbitrary trees, the peeling uses at most log2(n)+1
// phases, the paths partition the vertices, and every path is a downward
// chain.
func TestDecomposePhaseBound(t *testing.T) {
	property := func(q quickTree) bool {
		n := 1 + int(q.N)
		tr, err := tree.FromParent(randomParent(n, q.Seed), nil)
		if err != nil {
			return false
		}
		d := Decompose(tr, nil, nil)
		if d.NumPhases > int(wd.CeilLog2(n))+1 {
			return false
		}
		seen := make([]bool, n)
		count := 0
		for pid, p := range d.Paths {
			if len(p) == 0 {
				return false
			}
			for i, v := range p {
				if seen[v] {
					return false
				}
				seen[v] = true
				count++
				if i > 0 && tr.Parent[v] != p[i-1] {
					return false
				}
			}
			if d.FrontParent[pid] != tr.Parent[p[0]] {
				return false
			}
		}
		return count == n
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(606))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
