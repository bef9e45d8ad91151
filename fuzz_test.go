package parcut

import "testing"

// isRootedTree is the fuzz oracle for parent arrays, sharing no code with
// the constructor: exactly one entry is -1, every other entry is a vertex,
// and every vertex's walk up its parents reaches the root within n steps.
func isRootedTree(parent []int32) bool {
	n := len(parent)
	roots := 0
	for _, p := range parent {
		switch {
		case p == -1:
			roots++
		case p < 0 || int(p) >= n:
			return false
		}
	}
	if roots != 1 {
		return false
	}
	for v := range parent {
		u := int32(v)
		for steps := 0; parent[u] != -1; steps++ {
			if steps == n {
				return false
			}
			u = parent[u]
		}
	}
	return true
}

// fuzzParent decodes a parent array for NewPathAggregator from bytes: n ≤
// 32 vertices forming a random labelled tree (vertex i hangs off an
// earlier one, labels rotated so any vertex can be the root), then at most
// one byte-chosen defect. It also returns the number of weights to pass,
// which differs from n for the wrong-length defect.
func fuzzParent(next func() byte) (parent []int32, weights int) {
	n := 1 + int(next())%32
	shift := int(next())
	label := func(i int) int32 { return int32((i + shift) % n) }
	parent = make([]int32, n)
	parent[label(0)] = -1
	for i := 1; i < n; i++ {
		parent[label(i)] = label(int(next()) % i)
	}
	weights = n
	a, b := int(next())%n, int(next())%n
	switch next() % 8 {
	case 0: // cycle (off the root unless a or b is the root)
		parent[a], parent[b] = int32(b), int32(a)
	case 1: // a second root
		parent[a] = -1
	case 2: // parent out of range, above n or below -1
		parent[a] = int32(n + b)
		if b%2 == 1 {
			parent[a] = int32(-2 - b)
		}
	case 3: // self-parent
		parent[a] = int32(a)
	case 4: // wrong length
		weights = n + 1 - 2*(b%2)
	case 5: // every parent byte-chosen
		for v := range parent {
			parent[v] = int32(next())%int32(n+1) - 1
		}
	}
	return parent, weights
}

// FuzzPathAggregator drives the public Minimum Path structure, and through
// it the bough decomposition and the per-segment Minimum Prefix batches,
// with byte-chosen parent arrays and two batches of operations. The
// constructor must return an error exactly when isRootedTree rejects the
// array (or the weights are miscounted), and never panic; on a tree, Run
// must match a walk-to-root executor on both batches, so the first
// batch's commit is checked by the second.
func FuzzPathAggregator(f *testing.F) {
	f.Add([]byte{7, 0, 0, 1, 1, 2, 3, 4, 6, 2, 9, 5, 2, 200, 4, 17, 1, 3, 6, 250, 8, 0, 5, 5})
	for defect := byte(0); defect < 8; defect++ {
		f.Add([]byte{4, 1, 0, 0, 1, 3, 2, defect, 40, 30, 20, 10, 6, 3, 7, 2, 1, 0, 8, 1, 254, 3, 2})
	}
	f.Add([]byte{31, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
		20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 0, 0, 6, 255, 128, 64, 32, 24, 31, 9, 0, 4, 20, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		parent, nw := fuzzParent(next)
		n := len(parent)
		w := make([]int64, nw)
		for i := range w {
			w[i] = int64(int8(next()))
		}
		p, err := NewPathAggregator(parent, w)
		if want := nw == n && isRootedTree(parent); (err == nil) != want {
			t.Fatalf("parent %v with %d weights: NewPathAggregator error %v, want a tree: %v", parent, nw, err, want)
		}
		if err != nil {
			return
		}
		naive := append([]int64(nil), w...)
		for batch := 0; batch < 2; batch++ {
			ops := make([]PathOp, next()%48)
			for i := range ops {
				v, b := int32(int(next())%n), next()
				if b%2 == 0 {
					ops[i] = MinPath(v)
				} else {
					ops[i] = AddPath(v, int64(int8(b)))
				}
			}
			got, err := p.Run(ops)
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			for i, op := range ops {
				if !op.Query {
					for u := op.Vertex; u != -1; u = parent[u] {
						naive[u] += op.X
					}
					continue
				}
				want := naive[op.Vertex]
				for u := op.Vertex; u != -1; u = parent[u] {
					want = min(want, naive[u])
				}
				if got[i] != want {
					t.Fatalf("parent %v batch %d op %d (MinPath %d): got %d, want %d", parent, batch, i, op.Vertex, got[i], want)
				}
			}
			for v := range naive {
				if p.Weight(int32(v)) != naive[v] {
					t.Fatalf("parent %v after batch %d: weight %d = %d, want %d", parent, batch, v, p.Weight(int32(v)), naive[v])
				}
			}
		}
	})
}
