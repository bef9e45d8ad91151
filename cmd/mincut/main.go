// Command mincut computes a global minimum cut of a weighted graph.
//
// Input comes from a file in the repository's DIMACS-like format or from a
// generator spec:
//
//	mincut -in graph.txt
//	mincut -gen random:n=2000,m=8000,w=100 -seed 3
//
// Algorithms are the registered solve engines plus two conveniences:
// geissmann (the paper's parallel algorithm; "parcut" is an alias, the
// default), andersonblelloch (the same packing searched with the
// Anderson–Blelloch scan; bit-identical values), stoerwagner (exact and
// deterministic: maximum-adjacency passes with Nagamochi–Ibaraki
// contraction, O(n³) worst case), auto (pick by graph size; the chosen
// engine is printed), and brute (exhaustive, n ≤ 24 — not an engine).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/wd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mincut: ")
	in := flag.String("in", "", "input graph file (- for stdin)")
	genSpec := flag.String("gen", "", "generate the input instead (see graphgen -spec)")
	seed := flag.Int64("seed", 1, "random seed")
	algo := flag.String("algo", "parcut", "parcut (= geissmann) | andersonblelloch | stoerwagner | auto | brute")
	partition := flag.Bool("partition", false, "print one side of the cut")
	stats := flag.Bool("stats", false, "print work/depth model statistics (engines that meter themselves)")
	flag.Parse()

	g, truth := load(*in, *genSpec, *seed)
	start := time.Now()
	var (
		value int64
		inCut []bool
		err   error
	)
	var meter *wd.Meter
	if *stats {
		meter = new(wd.Meter)
	}
	engName := ""
	if *algo == "brute" {
		value, inCut, err = baseline.BruteForce(g)
	} else {
		// Everything else routes through the engine table; "parcut" stays
		// as an alias for the paper engine, and "auto" resolves by graph
		// size (the chosen engine is printed below).
		name := *algo
		if name == "parcut" {
			name = engine.Default
		}
		eng, rerr := engine.Resolve(name, g.N(), g.M())
		if rerr != nil {
			log.Fatalf("unknown algorithm %q: %v (plus the aliases parcut, brute)", *algo, rerr)
		}
		engName = eng.Name()
		var res core.Result
		res, err = eng.Solve(context.Background(), g, core.Options{Seed: *seed, WantPartition: *partition, Meter: meter})
		value, inCut = res.Value, res.InCut
	}
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if engName != "" {
		fmt.Printf("n=%d m=%d algo=%s engine=%s\n", g.N(), g.M(), *algo, engName)
	} else {
		fmt.Printf("n=%d m=%d algo=%s\n", g.N(), g.M(), *algo)
	}
	fmt.Printf("minimum cut value: %d\n", value)
	fmt.Printf("time: %v\n", elapsed.Round(time.Microsecond))
	if truth != nil {
		status := "MATCHES"
		if value != truth.CutValue {
			status = fmt.Sprintf("DIFFERS (known %d)", truth.CutValue)
		}
		fmt.Printf("known minimum cut: %s\n", status)
	}
	if *stats {
		if meter.Work() > 0 {
			fmt.Printf("model work: %d, model depth: %d\n", meter.Work(), meter.Depth())
		} else {
			fmt.Println("model work: not metered by this engine")
		}
	}
	if *partition && inCut != nil {
		fmt.Printf("cut side:")
		for v, in := range inCut {
			if in {
				fmt.Printf(" %d", v)
			}
		}
		fmt.Println()
		fmt.Printf("partition re-evaluated: %d\n", g.CutValue(inCut))
	}
}

func load(in, spec string, seed int64) (*graph.Graph, *gen.Planted) {
	switch {
	case in != "" && spec != "":
		log.Fatal("use either -in or -gen, not both")
	case spec != "":
		g, planted, err := gen.FromSpec(spec, seed)
		if err != nil {
			log.Fatal(err)
		}
		return g, planted
	case in == "-":
		g, err := graph.Read(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		return g, nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		g, err := graph.Read(f)
		if err != nil {
			log.Fatal(err)
		}
		return g, nil
	}
	log.Fatal("provide -in FILE or -gen SPEC")
	return nil, nil
}
