package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/par"
	"repro/internal/wd"
)

// The hotpath experiment benchmarks the solver's inner-loop primitives —
// the scan family, parallel merge/sort, fork-join dispatch, and the
// arena-backed connectivity kernel — and doubles as the CI perf gate:
// given -perf-baseline, it compares against the committed numbers and
// exits non-zero past -perf-tolerance.
//
// Cross-machine comparability: wall-clock ns/op is meaningless across
// hosts, so every gated series is normalized by ref_spin, a fixed
// sequential integer loop measured in the same process. The gate
// compares normalized ratios, which cancels raw CPU speed; allocs/op is
// machine-independent and compared directly. Pool widths are pinned
// (4 for the parallel series, 1 for the steady-state series) so the task
// structure does not depend on the host's core count either.
var (
	hotpathOut    = flag.String("hotpath-out", "", "write the hotpath series as JSON to this file")
	hotpathReps   = flag.Int("hotpath-reps", 3, "benchmark repetitions per hotpath series (median is reported)")
	perfBaseline  = flag.String("perf-baseline", "", "gate the hotpath series against this baseline JSON; regressions beyond -perf-tolerance exit non-zero")
	perfTolerance = flag.Float64("perf-tolerance", 0.10, "allowed relative regression in the perf gate (0.10 = 10%)")
)

// refSpinWork is sized so one op lands in single-digit milliseconds: long
// enough to measure cleanly, short enough that reps stay cheap.
const refSpinWork = 1 << 22

// refSpin is the calibration series: a pure sequential integer loop with
// no memory traffic beyond registers. Its ns/op tracks the host's scalar
// speed, which is the dominant machine factor in every other series.
func refSpin() uint64 {
	acc := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < refSpinWork; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
		acc += uint64(i)
	}
	return acc
}

type hotpathSeries struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type hotpathReport struct {
	Experiment string          `json:"experiment"`
	Reps       int             `json:"reps"`
	NumCPU     int             `json:"num_cpu"`
	GoVersion  string          `json:"go_version"`
	Series     []hotpathSeries `json:"series"`
	// Pool is the width-4 benchmark pool's counter snapshot after all
	// series ran: how the work moved (forks, steals) and how the arena
	// behaved. StealRatio is steals/forks — the fraction of forked
	// branches that ran on a goroutine other than their forker.
	// Informational, not gated: the ratio depends on scheduling, unlike
	// the gated ns/op and allocs/op.
	Pool hotpathPoolStats `json:"pool"`
}

type hotpathPoolStats struct {
	Forks       int64   `json:"forks"`
	Steals      int64   `json:"steals"`
	InlineRuns  int64   `json:"inline_runs"`
	ArenaHits   int64   `json:"arena_hits"`
	ArenaMisses int64   `json:"arena_misses"`
	StealRatio  float64 `json:"steal_ratio"`
}

// benchSeries runs one benchmark reps times; independent
// testing.Benchmark runs (each auto-scales b.N) are the cheapest way to
// get repetitions whose noise is uncorrelated. Timing keeps the MINIMUM
// across reps — interference from other processes only ever adds time,
// so the min is the noise-robust estimate of the series' true cost —
// while allocs/op keeps the median (it is deterministic; the median
// shields against a single rep whose warm-up iteration was counted).
func benchSeries(name string, reps int, f func(b *testing.B)) hotpathSeries {
	ns := make([]float64, 0, reps)
	allocs := make([]int64, 0, reps)
	bytes := make([]int64, 0, reps)
	for r := 0; r < reps; r++ {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		ns = append(ns, float64(res.NsPerOp()))
		allocs = append(allocs, res.AllocsPerOp())
		bytes = append(bytes, res.AllocedBytesPerOp())
	}
	sort.Float64s(ns)
	sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
	sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
	return hotpathSeries{Name: name, NsPerOp: ns[0], AllocsPerOp: allocs[len(allocs)/2], BytesPerOp: bytes[len(bytes)/2]}
}

// expHotpath — E14: inner-loop primitive benchmarks and the perf gate.
func expHotpath() {
	header("E14 (hotpath): inner-loop primitives, normalized by ref_spin")
	reps := *hotpathReps
	if reps < 1 {
		reps = 1
	}

	const n = 1 << 20
	xs := make([]int64, n)
	out := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i%1024) - 512
	}
	present := make([]bool, n)
	for i := range present {
		present[i] = i%257 == 0
	}
	// Two sorted interleaved halves for the merge series, and an
	// unsorted copy source for the sort series.
	half := n / 2
	ma := make([]int64, half)
	mb := make([]int64, half)
	for i := 0; i < half; i++ {
		ma[i] = int64(2 * i)
		mb[i] = int64(2*i + 1)
	}
	merged := make([]int64, n)
	sortSrc := make([]int64, n)
	for i := range sortSrc {
		sortSrc[i] = int64((i * 2654435761) % n)
	}
	sortBuf := make([]int64, n)

	// Width 4 regardless of host cores: identical task structure
	// everywhere, so only per-task cost varies (and ref_spin tracks it).
	pp := par.NewPool(4)
	defer pp.Close()
	less := func(a, b int64) bool { return a < b }

	// components_steady: the packing loop's connectivity check on a warm
	// arena — the series that pins the zero-alloc claim.
	const cn = 512
	cEdges := make([]graph.Edge, 0, 2*cn)
	for i := 1; i < cn; i++ {
		cEdges = append(cEdges, graph.Edge{U: int32(i / 2), V: int32(i), W: 1})
	}
	for i := 0; i+7 < cn; i += 3 {
		cEdges = append(cEdges, graph.Edge{U: int32(i), V: int32(i + 7), W: 1})
	}
	p1 := par.NewPool(1)
	defer p1.Close()
	meter := &wd.Meter{}

	var sink int64
	series := []struct {
		name string
		f    func(b *testing.B)
	}{
		{"ref_spin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += int64(refSpin())
			}
		}},
		{"scan_1m", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += pp.ExclusiveSum(xs, out)
			}
		}},
		{"segbroadcast_1m", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pp.SegmentedBroadcast(present, xs, out, -1)
			}
		}},
		{"reduce_min_1m", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, _ := pp.MinInt64(xs)
				sink += v
			}
		}},
		{"merge_1m", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par.MergeOn(pp, ma, mb, merged, less)
			}
		}},
		{"sort_1m", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(sortBuf, sortSrc)
				par.SortStableOn(pp, sortBuf, less)
			}
		}},
		{"fork_join_burst", func(b *testing.B) {
			// 512 leaf tasks per op through the pool's queue: the
			// saturation shape that must queue, not run inline.
			var rec func(d int)
			rec = func(d int) {
				if d == 0 {
					acc := uint64(d)
					for i := 0; i < 256; i++ {
						acc ^= acc<<13 + uint64(i)
					}
					sink += int64(acc)
					return
				}
				pp.Do(func() { rec(d - 1) }, func() { rec(d - 1) })
			}
			for i := 0; i < b.N; i++ {
				rec(9)
			}
		}},
		{"components_steady", func(b *testing.B) {
			mst.Components(cn, cEdges, p1, meter) // warm the arena
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += int64(mst.Components(cn, cEdges, p1, meter))
			}
		}},
	}

	results := make([]hotpathSeries, 0, len(series))
	fmt.Println("| series | ns/op | vs ref_spin | allocs/op | B/op |")
	fmt.Println("|--------|-------|-------------|-----------|------|")
	var refNs float64
	for _, s := range series {
		r := benchSeries(s.name, reps, s.f)
		if s.name == "ref_spin" {
			refNs = r.NsPerOp
		}
		norm := "—"
		if refNs > 0 && s.name != "ref_spin" {
			norm = fmt.Sprintf("%.3f", r.NsPerOp/refNs)
		}
		fmt.Printf("| %s | %.0f | %s | %d | %d |\n", r.Name, r.NsPerOp, norm, r.AllocsPerOp, r.BytesPerOp)
		results = append(results, r)
	}
	_ = sink

	st := pp.Stats()
	ratio := 0.0
	if st.Forks > 0 {
		ratio = float64(st.Steals) / float64(st.Forks)
	}
	fmt.Printf("\npool: %d forks, %d steals (ratio %.3f), %d inline, arena %d hits / %d misses\n",
		st.Forks, st.Steals, ratio, st.InlineRuns, st.ArenaHits, st.ArenaMisses)

	if *hotpathOut != "" {
		blob, err := json.MarshalIndent(hotpathReport{
			Experiment: "hotpath",
			Reps:       reps,
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Series:     results,
			Pool: hotpathPoolStats{
				Forks:       st.Forks,
				Steals:      st.Steals,
				InlineRuns:  st.InlineRuns,
				ArenaHits:   st.ArenaHits,
				ArenaMisses: st.ArenaMisses,
				StealRatio:  ratio,
			},
		}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*hotpathOut, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *hotpathOut)
	}
	if *perfBaseline != "" {
		gateHotpath(results, *perfBaseline, *perfTolerance)
	}
}

// gateHotpath compares the measured series against the committed baseline
// and exits non-zero on regression. Timing is compared after dividing
// both sides by their own ref_spin (cancelling raw host speed); allocs/op
// is compared directly. A series only fails if it exceeds the tolerance
// AND regresses by at least one whole allocation — so a 0-alloc baseline
// fails on the first allocation that creeps in, without flagging noise.
func gateHotpath(cur []hotpathSeries, baselinePath string, tol float64) {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatalf("perf gate: cannot read baseline: %v", err)
	}
	var base hotpathReport
	if err := json.Unmarshal(blob, &base); err != nil {
		log.Fatalf("perf gate: bad baseline %s: %v", baselinePath, err)
	}
	baseBy := map[string]hotpathSeries{}
	for _, s := range base.Series {
		baseBy[s.Name] = s
	}
	curBy := map[string]hotpathSeries{}
	for _, s := range cur {
		curBy[s.Name] = s
	}
	curRef, okC := curBy["ref_spin"]
	baseRef, okB := baseBy["ref_spin"]
	if !okC || !okB || curRef.NsPerOp <= 0 || baseRef.NsPerOp <= 0 {
		log.Fatal("perf gate: ref_spin series missing from current run or baseline")
	}

	fmt.Printf("\nperf gate vs %s (tolerance %.0f%%, ref_spin %.2fms now / %.2fms baseline)\n",
		baselinePath, tol*100, curRef.NsPerOp/1e6, baseRef.NsPerOp/1e6)
	failures := 0
	for _, c := range cur {
		if c.Name == "ref_spin" {
			continue
		}
		b, ok := baseBy[c.Name]
		if !ok {
			fmt.Printf("  NEW   %-18s no baseline entry; will be gated once the baseline is refreshed\n", c.Name)
			continue
		}
		ratio := (c.NsPerOp / curRef.NsPerOp) / (b.NsPerOp / baseRef.NsPerOp)
		verdict := "ok"
		if ratio > 1+tol {
			verdict = "REGRESSED"
			failures++
		}
		fmt.Printf("  %-5s %-18s normalized time %.3fx baseline (allocs %d vs %d)\n",
			verdict, c.Name, ratio, c.AllocsPerOp, b.AllocsPerOp)
		if float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol) && c.AllocsPerOp >= b.AllocsPerOp+1 {
			fmt.Printf("  REGRESSED %-14s allocs/op %d vs baseline %d\n", c.Name, c.AllocsPerOp, b.AllocsPerOp)
			failures++
		}
	}
	for name := range baseBy {
		if _, ok := curBy[name]; !ok && name != "ref_spin" {
			fmt.Printf("  GONE  %-18s series in baseline but not measured — removed on purpose? refresh the baseline\n", name)
			failures++
		}
	}
	if failures > 0 {
		fmt.Printf("\nperf gate FAILED: %d regression(s).\n", failures)
		fmt.Println("If the slowdown is intended (algorithmic change, new feature cost), refresh the baseline:")
		fmt.Println("  go run ./cmd/paperbench -exp hotpath -hotpath-reps 3 -hotpath-out BENCH_baseline.json")
		fmt.Println("commit BENCH_baseline.json, and explain the regression in the PR description.")
		os.Exit(1)
	}
	fmt.Println("\nperf gate PASSED")
}
