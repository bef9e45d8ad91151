package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ksSeedStep derives trial i's seed as seed + i*ksSeedStep — the same
// additive odd-constant scheme as parcut.BoostSeed, so trial seeds are
// explicit, deterministic, and composable (trial i of a k-trial solve
// equals trial 0 of a solve seeded at seed + i*ksSeedStep). No
// package-global rand state is ever touched.
const ksSeedStep = 0x9e3779b9

// ksState is a contracted graph in dense form, the natural representation
// for recursive contraction (and the source of its Θ(n²) work per level).
type ksState struct {
	n      int       // supernodes
	w      []int64   // n*n merged weights
	rowSum []int64   // incident weight per supernode
	groups [][]int32 // original vertices per supernode
}

func newKSState(g *graph.Graph) *ksState {
	n := g.N()
	s := &ksState{n: n, w: make([]int64, n*n), rowSum: make([]int64, n), groups: make([][]int32, n)}
	for v := 0; v < n; v++ {
		s.groups[v] = []int32{int32(v)}
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			continue
		}
		s.w[int(e.U)*n+int(e.V)] += e.W
		s.w[int(e.V)*n+int(e.U)] += e.W
		s.rowSum[e.U] += e.W
		s.rowSum[e.V] += e.W
	}
	return s
}

func (s *ksState) clone() *ksState {
	c := &ksState{n: s.n, w: append([]int64(nil), s.w...), rowSum: append([]int64(nil), s.rowSum...)}
	c.groups = make([][]int32, len(s.groups))
	for i, g := range s.groups {
		c.groups[i] = append([]int32(nil), g...)
	}
	return c
}

// contractRandom merges a random edge chosen proportionally to weight.
// Supernode indices stay dense by swapping the last row in.
func (s *ksState) contractRandom(rng *rand.Rand) {
	// Pick endpoint u ∝ rowSum, then v ∝ w[u][·].
	var total int64
	for i := 0; i < s.n; i++ {
		total += s.rowSum[i]
	}
	if total == 0 {
		// Disconnected remainder: merge two arbitrary supernodes.
		s.merge(0, 1)
		return
	}
	r := rng.Int63n(total)
	u := 0
	for ; u < s.n; u++ {
		if r < s.rowSum[u] {
			break
		}
		r -= s.rowSum[u]
	}
	r = rng.Int63n(s.rowSum[u])
	v := 0
	for ; v < s.n; v++ {
		if v == u {
			continue
		}
		if r < s.w[u*s.n+v] {
			break
		}
		r -= s.w[u*s.n+v]
	}
	s.merge(u, v)
}

// merge contracts supernodes u and v (u keeps the identity; the last
// supernode moves into v's slot).
func (s *ksState) merge(u, v int) {
	n := s.n
	// Fold v's row into u.
	s.rowSum[u] += s.rowSum[v] - 2*s.w[u*n+v]
	for x := 0; x < n; x++ {
		if x == u || x == v {
			continue
		}
		s.w[u*n+x] += s.w[v*n+x]
		s.w[x*n+u] = s.w[u*n+x]
	}
	s.w[u*n+v] = 0
	s.w[v*n+u] = 0
	s.groups[u] = append(s.groups[u], s.groups[v]...)
	// Move the last supernode into slot v.
	last := n - 1
	if v != last {
		for x := 0; x < n; x++ {
			s.w[v*n+x] = s.w[last*n+x]
			s.w[x*n+v] = s.w[x*n+last]
		}
		s.w[v*n+v] = 0
		s.rowSum[v] = s.rowSum[last]
		s.groups[v] = s.groups[last]
	}
	s.n = n - 1
	s.compactInto(n)
}

// compactInto rewrites the (n)x(n) matrix into (n')x(n') row stride.
func (s *ksState) compactInto(oldN int) {
	n := s.n
	if n == oldN {
		return
	}
	for r := 1; r < n; r++ {
		copy(s.w[r*n:(r+1)*n], s.w[r*oldN:r*oldN+n])
	}
	s.w = s.w[:n*n]
	s.rowSum = s.rowSum[:n]
	s.groups = s.groups[:n]
}

// contractTo contracts until t supernodes remain.
func (s *ksState) contractTo(t int, rng *rand.Rand) {
	for s.n > t {
		s.contractRandom(rng)
	}
}

// cutOfTwo reads off the cut value once two supernodes remain.
func (s *ksState) cutOfTwo() (int64, []int32) {
	return s.w[1], s.groups[0]
}

// recurse is the Karger–Stein recursion: contract to n/√2 twice and take
// the better of the two recursive results.
func recurse(s *ksState, rng *rand.Rand) (int64, []int32) {
	if s.n <= 6 {
		s.contractTo(2, rng)
		return s.cutOfTwo()
	}
	t := int(math.Ceil(1 + float64(s.n)/math.Sqrt2))
	if t >= s.n {
		t = s.n - 1
	}
	a := s.clone()
	a.contractTo(t, rng)
	v1, g1 := recurse(a, rng)
	s.contractTo(t, rng)
	v2, g2 := recurse(s, rng)
	if v1 <= v2 {
		return v1, g1
	}
	return v2, g2
}

// KargerSteinOnce runs one recursive-contraction trial (success
// probability Ω(1/log n)) with an explicit seed; the trial's randomness
// comes from a private rand.Rand, never package-global state.
func KargerSteinOnce(g *graph.Graph, seed int64) (int64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, fmt.Errorf("baseline: minimum cut needs at least 2 vertices")
	}
	v, group := recurse(newKSState(g), rand.New(rand.NewSource(seed)))
	inCut := make([]bool, n)
	for _, x := range group {
		inCut[x] = true
	}
	return v, inCut, nil
}

// KargerStein repeats KargerSteinOnce ⌈log²n⌉+1 times for a
// high-probability result (Θ(n² log³ n) total work — the Table 1
// comparator). Deterministic in seed: trial i runs on seed + i*ksSeedStep,
// and the first trial to reach the minimum value supplies the partition.
func KargerStein(g *graph.Graph, seed int64) (int64, []bool, error) {
	best, bestCut, err := KargerSteinOnce(g, seed)
	if err != nil {
		return 0, nil, err
	}
	log2n := math.Log2(float64(g.N()))
	trials := int(math.Ceil(log2n*log2n)) + 1
	for i := 1; i < trials; i++ {
		v, inCut, err := KargerSteinOnce(g, seed+int64(i)*ksSeedStep)
		if err != nil {
			return 0, nil, err
		}
		if v < best {
			best, bestCut = v, inCut
		}
	}
	return best, bestCut, nil
}

// BruteForce enumerates all 2^(n-1) cuts (n ≤ 24 enforced).
func BruteForce(g *graph.Graph) (int64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, fmt.Errorf("baseline: minimum cut needs at least 2 vertices")
	}
	if n > 24 {
		return 0, nil, fmt.Errorf("baseline: brute force limited to 24 vertices, got %d", n)
	}
	best := int64(-1)
	var bestMask uint64
	inCut := make([]bool, n)
	for mask := uint64(1); mask < 1<<uint(n-1); mask++ {
		for v := 0; v < n; v++ {
			inCut[v] = mask&(1<<uint(v)) != 0
		}
		if v := g.CutValue(inCut); best < 0 || v < best {
			best, bestMask = v, mask
		}
	}
	for v := 0; v < n; v++ {
		inCut[v] = bestMask&(1<<uint(v)) != 0
	}
	return best, inCut, nil
}
