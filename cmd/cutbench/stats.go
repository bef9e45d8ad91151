package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer is set by a handful of outliers, so it is refused.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := sorted(xs)
	return s[rank-1], nil
}

// median is the middle sample (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) with its default "exclusive" method, so a
// spread computed here equals the one the acceptance check computes. It
// needs at least two samples.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile range of xs as a share of its median
// (+Inf for fewer than two samples, whose spread is unknown).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(q[1])
}

// benchDef is the part of BENCHMARK.json that -compare applies.
type benchDef struct {
	EndToEnd []bound `json:"end_to_end"`
}

// bound is one end-to-end metric's direction and regression bound.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// record is one line of a -json file: one run of one workload.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// Verdicts of -compare.
const (
	better     = "better"
	worse      = "worse"
	same       = "same"
	unresolved = "unresolved"
)

// verdict judges one metric: worse or better when the medians differ by
// more than limit (as a share of the base median, signed by direction),
// and unresolved when either side's runs spread wider than limit — unless
// every new run beats every base run.
func verdict(base, cur []float64, higherBetter bool, limit float64) (string, float64) {
	if len(base) == 0 || len(cur) == 0 {
		return unresolved, math.NaN()
	}
	mb, mc := median(base), median(cur)
	change := (mc - mb) / math.Abs(mb)
	worseBy := change
	if higherBetter {
		worseBy = -change
	}
	if spread(base) > limit || spread(cur) > limit {
		if allBetter(base, cur, higherBetter) {
			return better, change
		}
		return unresolved, change
	}
	switch {
	case worseBy > limit:
		return worse, change
	case worseBy < -limit:
		return better, change
	}
	return same, change
}

func allBetter(base, cur []float64, higherBetter bool) bool {
	sb, sc := sorted(base), sorted(cur)
	if higherBetter {
		return sc[0] > sb[len(sb)-1]
	}
	return sc[len(sc)-1] < sb[0]
}

// readRecords loads the untraced runs of a -json file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareRuns prints one row per workload: its overall verdict (worse if
// any metric is worse, else unresolved, else better, else same), then each
// end-to-end metric's median change and verdict. A rise in the failed
// share of operations is always worse. It reports whether any row is
// worse.
func compareRuns(def benchDef, base, cur []record, w io.Writer) bool {
	type runs struct {
		metrics           map[string][]float64
		attempted, failed int
	}
	group := func(rs []record) map[string]*runs {
		g := map[string]*runs{}
		for _, r := range rs {
			x := g[r.Workload]
			if x == nil {
				x = &runs{metrics: map[string][]float64{}}
				g[r.Workload] = x
			}
			for name, m := range r.Result.Metrics {
				x.metrics[name] = append(x.metrics[name], m.Value)
			}
			x.attempted += r.Result.Attempted
			x.failed += r.Result.Failed
		}
		return g
	}
	gb, gc := group(base), group(cur)
	var names []string
	for name := range gb {
		if gc[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rank := map[string]int{same: 0, better: 1, unresolved: 2, worse: 3}
	anyWorse := false
	for _, name := range names {
		b, c := gb[name], gc[name]
		row := same
		var cells []string
		note := func(v, cell string) {
			if rank[v] > rank[row] {
				row = v
			}
			cells = append(cells, cell)
		}
		for _, m := range def.EndToEnd {
			v, change := verdict(b.metrics[m.Name], c.metrics[m.Name], m.Better == "higher", m.Bound)
			note(v, fmt.Sprintf("%s %+.1f%% %s", m.Name, 100*change, v))
		}
		rate := func(x *runs) float64 { return float64(x.failed) / float64(max(x.attempted, 1)) }
		if rate(c) > rate(b) {
			note(worse, fmt.Sprintf("error_rate %.4f→%.4f worse", rate(b), rate(c)))
		}
		if row == worse {
			anyWorse = true
		}
		fmt.Fprintf(w, "%-8s %-10s %s\n", name, row, strings.Join(cells, ", "))
	}
	return anyWorse
}
