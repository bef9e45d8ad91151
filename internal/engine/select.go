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
// The exact engine wins while its matrix is small or the graph is dense
// enough that the polylog machinery has no sparsity to exploit. Past that
// region both 2-respecting-scan engines pack the same
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

// DefaultThresholds hold the shipped calibration (paperbench -exp
// engines, BENCH_engines.json). They were set when stoerwagner ran
// Stoer–Wagner's one merge per phase. Last measured with the
// Nagamochi–Ibaraki kernel, best of 3 per cell on a default pool of
// width 2, stoerwagner beat andersonblelloch on every cell it ran: on
// the sparse family (m = 4n) 0.4 ms against 9.9 ms at n = 256, 1.8 ms
// against 27.5 ms at n = 512 and 7.7 ms against 92.6 ms at n = 1024; on
// the dense family (m = n²/8) 0.2 ms against 55.9 ms at n = 256 and
// 1.6 ms against 353 ms at n = 512. So these thresholds send sparse graphs above
// n = 512 and dense ones above n = 1024 to the slower engine; moving them
// needs grid cells above those sizes.
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
