package par

import (
	"math/rand"
	"testing"
)

// TestMergeSkewedSizes is the regression for the unbalanced-recursion
// panic: when one side of the merge drains much faster than the other,
// the recursion must keep re-balancing instead of indexing into an empty
// slice.
func TestMergeSkewedSizes(t *testing.T) {
	for _, tc := range []struct{ na, nb int }{
		{0, 10 * Grain}, {10 * Grain, 0}, {1, 10 * Grain}, {10 * Grain, 1},
		{17, 9 * Grain}, {9 * Grain, 17},
	} {
		a := make([]kv, tc.na)
		b := make([]kv, tc.nb)
		for i := range a {
			a[i] = kv{key: 2 * i, seq: i}
		}
		for i := range b {
			b[i] = kv{key: 2*i + 1, seq: tc.na + i}
		}
		out := make([]kv, tc.na+tc.nb)
		MergeOn(nil, a, b, out, func(x, y kv) bool { return x.key < y.key })
		for i := 1; i < len(out); i++ {
			if out[i].key < out[i-1].key {
				t.Fatalf("na=%d nb=%d: not sorted at %d", tc.na, tc.nb, i)
			}
		}
	}
}

// TestMergeAllEqualKeys drives the split point to one extreme on every
// level, the worst case for balance, and checks stability survives.
func TestMergeAllEqualKeys(t *testing.T) {
	n := 12 * Grain
	a := make([]kv, n)
	b := make([]kv, n/3)
	for i := range a {
		a[i] = kv{key: 7, seq: i}
	}
	for i := range b {
		b[i] = kv{key: 7, seq: n + i}
	}
	out := make([]kv, len(a)+len(b))
	MergeOn(nil, a, b, out, func(x, y kv) bool { return x.key < y.key })
	for i := 1; i < len(out); i++ {
		if out[i].seq < out[i-1].seq {
			t.Fatalf("stability broken at %d: %d before %d", i, out[i-1].seq, out[i].seq)
		}
	}
}

// TestSortStableConstantAndSkewedKeys mirrors the workload that exposed
// the bug: sorting large arrays whose keys are heavily clustered (as the
// by-segment sort of expanded path operations is).
func TestSortStableConstantAndSkewedKeys(t *testing.T) {
	n := 30 * Grain
	xs := make([]kv, n)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		key := 0
		if rng.Intn(20) == 0 {
			key = rng.Intn(3)
		}
		xs[i] = kv{key: key, seq: i}
	}
	SortStableOn(nil, xs, func(x, y kv) bool { return x.key < y.key })
	for i := 1; i < n; i++ {
		if xs[i].key < xs[i-1].key || (xs[i].key == xs[i-1].key && xs[i].seq < xs[i-1].seq) {
			t.Fatalf("order broken at %d", i)
		}
	}
}
