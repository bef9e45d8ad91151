package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50}, {100, 90, 90}, {20, 50, 10}, {101, 90, 91}, {200, 90, 180},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{99, 90}, {19, 50}, {0, 50}} {
		if got, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %v, want a refusal", c.p, c.n, got)
		}
	}
}

// The want values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.0, 2.2}, [3]float64{1.0, 2.2, 3.1}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 12, 11, 13, 9, 30, 10.5}, [3]float64{10, 11, 13}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if s := spread([]float64{1}); !math.IsInf(s, 1) {
		t.Errorf("spread of one sample = %v, want +Inf", s)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		cur          []float64
		higherBetter bool
		want         string
	}{
		{"slower", scale(1.2), false, worse},
		{"faster", scale(0.8), false, better},
		{"within bound", scale(1.05), false, same},
		{"throughput drop", scale(0.8), true, worse},
		{"throughput rise", scale(1.2), true, better},
		{"noisy", []float64{60, 100, 140, 80, 120, 100}, false, unresolved},
		{"noisy but every run better", []float64{10, 50, 90, 30, 70, 50}, false, better},
	} {
		if got, _ := verdict(base, c.cur, c.higherBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	def := benchDef{EndToEnd: []bound{{"latency_ms_p50", "lower", 0.1}}}
	runs := func(workload string, lat float64, failed int) []record {
		var rs []record
		for i, jitter := range []float64{0.99, 1, 1.01} {
			rs = append(rs, record{Workload: workload, Seed: int64(i), Result: result{
				Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"latency_ms_p50": {lat * jitter, "ms"}},
			}})
		}
		return rs
	}
	base := append(runs("a", 10, 0), runs("b", 10, 0)...)
	base = append(base, runs("c", 10, 0)...)
	cur := append(runs("a", 10, 0), runs("b", 13, 0)...)
	cur = append(cur, runs("c", 10, 1)...)
	var out bytes.Buffer
	if !compareRuns(def, base, cur, &out) {
		t.Errorf("compareRuns reported no worse workload:\n%s", out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i, want := range []string{same, worse, worse} {
		if f := strings.Fields(rows[i]); len(f) < 2 || f[1] != want {
			t.Errorf("row %q: want verdict %s", rows[i], want)
		}
	}
}
