package tree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type quickTreeCase struct {
	Seed int64
	N    uint16
}

// Generate implements quick.Generator.
func (quickTreeCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickTreeCase{Seed: rng.Int63(), N: uint16(rng.Intn(1500))})
}

// TestQuickSubtreeIntervalInvariants: preorder intervals nest or are
// disjoint, sizes telescope, and IsAncestor is consistent with parent
// chains.
func TestQuickSubtreeIntervalInvariants(t *testing.T) {
	property := func(q quickTreeCase) bool {
		n := 1 + int(q.N)
		parent := randomParent(n, q.Seed)
		tr, err := FromParent(parent, nil)
		if err != nil {
			return false
		}
		// Subtree size = 1 + sum of child subtree sizes.
		for v := int32(0); v < int32(n); v++ {
			size := tr.Out[v] - tr.In[v]
			sum := int32(1)
			for i := tr.ChildOff[v]; i < tr.ChildOff[v+1]; i++ {
				c := tr.Child[i]
				sum += tr.Out[c] - tr.In[c]
			}
			if size != sum {
				return false
			}
			// Parent chain consistency.
			if p := tr.Parent[v]; p != None {
				if !tr.IsAncestor(p, v) || tr.IsAncestor(v, p) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(515))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
