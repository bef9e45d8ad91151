package engine

// Thresholds parameterize the Auto selection rule. The rule is
// intentionally coarse — a few comparisons on numbers the registry
// already has (n, m) — because the measured crossovers (paperbench -exp
// engines, BENCH_engines.json) are themselves coarse. The selection
// table it implements:
//
//	n <= SmallN                        → stoerwagner
//	n <= DenseN and m >= DenseFrac·n²  → stoerwagner
//	otherwise                          → andersonblelloch
//
// Tuned sequential Stoer–Wagner wins while the n³ term is small or the
// graph is dense enough that the polylog machinery has no sparsity to
// exploit. Past that region both 2-respecting-scan engines pack the same
// trees and find bit-identical values, and the Anderson–Blelloch
// heavy-path scan (internal/abscan), which does one log factor less work
// per tree, beat geissmann's bough-decomposition scan on every measured
// cell, so auto never picks geissmann; it stays the library default
// because it is the paper's pipeline.
type Thresholds struct {
	// SmallN: graphs with n <= SmallN go to stoerwagner regardless of
	// density.
	SmallN int
	// DenseN / DenseFrac: graphs with n <= DenseN whose edge count is at
	// least DenseFrac·n² also go to stoerwagner (dense enough that m is
	// Θ(n²), where the sequential baseline's cache-friendly inner loops
	// win longer).
	DenseN    int
	DenseFrac float64
}

// DefaultThresholds hold the shipped calibration, refreshed from the
// crossover measurements in BENCH_engines.json (paperbench -exp engines).
// Last measured: on the sparse family (m = 4n) stoerwagner wins through
// n = 512 (265 ms vs 294 ms) and loses at n = 1024 (2.0 s vs 0.94 s); on
// the dense family (m = n²/8) it still wins 14× at n = 512 (258 ms vs
// 3.7 s), so the dense rule extends one doubling past the sparse one.
var DefaultThresholds = Thresholds{SmallN: 512, DenseN: 1024, DenseFrac: 0.125}

// Select applies the thresholds to a graph with n vertices and m edges.
func (t Thresholds) Select(n, m int) string {
	if n <= t.SmallN {
		return "stoerwagner"
	}
	if n <= t.DenseN && float64(m) >= t.DenseFrac*float64(n)*float64(n) {
		return "stoerwagner"
	}
	return "andersonblelloch"
}

// Select is the Auto rule at the default calibration.
func Select(n, m int) string {
	return DefaultThresholds.Select(n, m)
}
