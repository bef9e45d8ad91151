package engine

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/par"
)

// TestRegistryBuiltins: the engine table holds the three engines in
// order, each resolvable by name, with the capability bit the upper
// layers gate on.
func TestRegistryBuiltins(t *testing.T) {
	want := []string{"geissmann", "stoerwagner", "andersonblelloch"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	caps := map[string]Caps{}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed", name)
		}
		if e.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, e.Name())
		}
		caps[name] = e.Caps()
	}
	for name, exact := range map[string]bool{"geissmann": false, "stoerwagner": true, "andersonblelloch": false} {
		if caps[name].Exact != exact {
			t.Fatalf("%s caps = %+v, want Exact %v", name, caps[name], exact)
		}
	}
}

func TestResolve(t *testing.T) {
	if e, err := Resolve("", 10_000, 40_000); err != nil || e.Name() != Default {
		t.Fatalf(`Resolve("") = %v, %v; want the default engine`, e, err)
	}
	// Karger–Stein is an internal/baseline oracle, not a served engine.
	for _, name := range []string{"edmondskarp", "kargerstein"} {
		if _, err := Resolve(name, 10, 20); err == nil {
			t.Fatalf("Resolve(%q) succeeded; want an unknown-engine error", name)
		}
	}
	// Auto: small goes to the exact baseline, large sparse to the
	// Anderson–Blelloch scan, large-and-dense to the baseline again.
	if e, _ := Resolve(Auto, 100, 400); e.Name() != "stoerwagner" {
		t.Fatalf("auto(100, 400) = %s, want stoerwagner", e.Name())
	}
	if e, _ := Resolve(Auto, 4096, 16_384); e.Name() != "andersonblelloch" {
		t.Fatalf("auto(4096, 16384) = %s, want andersonblelloch", e.Name())
	}
	if e, _ := Resolve(Auto, 1024, 1024*1024/4); e.Name() != "stoerwagner" {
		t.Fatalf("auto(1024, dense) = %s, want stoerwagner", e.Name())
	}
}

func TestSelectThresholds(t *testing.T) {
	tr := Thresholds{SmallN: 512, DenseN: 1024, DenseFrac: 0.125}
	cases := []struct {
		n, m int
		want string
	}{
		{2, 1, "stoerwagner"},
		{512, 2048, "stoerwagner"},               // at SmallN
		{513, 2052, "andersonblelloch"},          // just past SmallN, sparse
		{1024, 1024 * 128, "stoerwagner"},        // <= DenseN and m = n²/8
		{1024, 1024*128 - 1, "andersonblelloch"}, // a hair under the density bar
		{1025, 1025 * 1025, "andersonblelloch"},  // past DenseN, density irrelevant
		{100_000, 400_000, "andersonblelloch"},
	}
	for _, c := range cases {
		if got := tr.Select(c.n, c.m); got != c.want {
			t.Errorf("Select(%d, %d) = %s, want %s", c.n, c.m, got, c.want)
		}
	}
}

// checkPartition verifies a WantPartition result: a real two-sided
// partition whose re-evaluated cut weight equals the reported value.
func checkPartition(t *testing.T, g *graph.Graph, name string, res core.Result) {
	t.Helper()
	if len(res.InCut) != g.N() {
		t.Fatalf("%s: partition has %d entries for n=%d", name, len(res.InCut), g.N())
	}
	side := 0
	for _, in := range res.InCut {
		if in {
			side++
		}
	}
	if side == 0 || side == g.N() {
		t.Fatalf("%s: degenerate partition (%d of %d on the cut side)", name, side, g.N())
	}
	if v := g.CutValue(res.InCut); v != res.Value {
		t.Fatalf("%s: partition re-evaluates to %d, reported value %d", name, v, res.Value)
	}
}

// TestCrossEngineEquivalence solves ~50 random connected graphs of varied
// density with the paper engine, the Anderson–Blelloch engine, and the
// exact baseline: every value must match — and andersonblelloch must
// match geissmann bit for bit, since it packs the same trees and both
// per-tree searches are exact — and each engine's partition must
// re-evaluate to that value. Runs under -race in CI.
func TestCrossEngineEquivalence(t *testing.T) {
	t.Parallel()
	geis, _ := Lookup("geissmann")
	ab, _ := Lookup("andersonblelloch")
	sw, _ := Lookup("stoerwagner")
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		n := 16 + rng.Intn(80)
		maxM := n * (n - 1) / 2
		// Sweep density from barely-connected to near-complete.
		m := n - 1 + rng.Intn(maxM-(n-1)+1)
		g := gen.RandomConnected(n, m, 50, int64(1000+i))
		opt := core.Options{Seed: int64(i), WantPartition: true}
		sres, err := sw.Solve(ctx, g, opt)
		if err != nil {
			t.Fatalf("graph %d (n=%d m=%d): stoerwagner: %v", i, n, m, err)
		}
		gres, err := geis.Solve(ctx, g, opt)
		if err != nil {
			t.Fatalf("graph %d (n=%d m=%d): geissmann: %v", i, n, m, err)
		}
		if gres.Value != sres.Value {
			t.Fatalf("graph %d (n=%d m=%d): geissmann=%d stoerwagner=%d", i, n, m, gres.Value, sres.Value)
		}
		ares, err := ab.Solve(ctx, g, opt)
		if err != nil {
			t.Fatalf("graph %d (n=%d m=%d): andersonblelloch: %v", i, n, m, err)
		}
		if ares.Value != gres.Value {
			t.Fatalf("graph %d (n=%d m=%d): andersonblelloch=%d geissmann=%d (must be bit-identical)",
				i, n, m, ares.Value, gres.Value)
		}
		if ares.TreesScanned != gres.TreesScanned {
			t.Fatalf("graph %d: andersonblelloch scanned %d trees, geissmann %d (same packing expected)",
				i, ares.TreesScanned, gres.TreesScanned)
		}
		checkPartition(t, g, "stoerwagner", sres)
		checkPartition(t, g, "geissmann", gres)
		checkPartition(t, g, "andersonblelloch", ares)
	}
}

// TestWidthDeterminism: every engine returns a bit-identical Result at
// pool widths 1, 2, 7, and GOMAXPROCS — the repo's invariant that the
// executor width is a throughput knob, never a semantic one.
func TestWidthDeterminism(t *testing.T) {
	t.Parallel()
	g := gen.RandomConnected(72, 600, 40, 4242)
	widths := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, name := range Names() {
		e, _ := Lookup(name)
		var ref core.Result
		for wi, w := range widths {
			pool := par.NewPool(w)
			res, err := e.Solve(context.Background(), g, core.Options{Seed: 5, WantPartition: true, Pool: pool})
			pool.Close()
			if err != nil {
				t.Fatalf("%s at width %d: %v", name, w, err)
			}
			if wi == 0 {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s: width %d result %+v differs from width 1 result %+v", name, w, res, ref)
			}
		}
	}
}
