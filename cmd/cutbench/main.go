// Command cutbench is the repository's end-to-end benchmark. It
// generates each workload's graphs from a seed, drives the program as its
// users do — parcut.MinCut on graphs loaded through parcut.ReadGraph, or
// mincutd over HTTP — checks every answer against a reference minimum cut,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 180, "failed": 0, "metrics": {"latency_ms_p50": {"value": 108.2, "unit": "ms"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) replays the operations through each layer's public functions
// and reports per-layer metrics. Build and run it from the repository
// root with
//
//	bash cmd/cutbench/run.sh -workload sparse -seed 1 -seconds 20 -trace 0
//
// Without -workload every workload runs, each in its own child process.
// cutbench -compare base.json new.json applies BENCHMARK.json's bounds to
// two sets of runs recorded with -json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// result is what one run reports; its JSON form is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload, mincutd, workdir, traceOut, jsonOut string
	seed                                          int64
	seconds                                       float64
	trace, smoke                                  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cutbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: every workload, each in a child process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long a run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&cfg.mincutd, "mincutd", "", "mincutd binary the service workload runs")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for mincutd data and span files")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default <workdir>/spans-<workload>.jsonl)")
	fs.StringVar(&cfg.jsonOut, "json", "", "append each run's result to this file, one JSON line per run")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny graphs, for testing the benchmark itself")
	fs.BoolVar(&compare, "compare", false, "compare two -json files: cutbench -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "cutbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "cutbench: %v\n", err)
		return 1
	}
	if cfg.workload == "" {
		return runAll(cfg, stdout, stderr)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cutbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(cfg, res, stdout); err != nil {
		fmt.Fprintf(stderr, "cutbench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload makes the workload's inputs and runs it once.
func runWorkload(cfg config) (result, error) {
	w, err := findWorkload(cfg.workload, cfg.smoke)
	if err != nil {
		return result{}, err
	}
	ins, err := makeInputs(w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	switch {
	case cfg.trace:
		out := cfg.traceOut
		if out == "" {
			out = filepath.Join(cfg.workdir, "spans-"+w.name+".jsonl")
		}
		return runTraced(w, cfg.seed, dur, ins, cfg.mincutd, cfg.workdir, out)
	case w.service:
		return runService(w, cfg.seed, dur, ins, cfg.mincutd, cfg.workdir)
	}
	return runSolver(w, cfg.seed, dur, ins)
}

// report prints every metric with its unit, then the result line, and
// appends the run to the -json file.
func report(cfg config, res result, stdout io.Writer) error {
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %v  attempted %d  failed %d\n", cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-26s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if !cfg.trace {
		fmt.Fprintf(stdout, "  %-26s %14.4f %s\n", "error_rate", float64(res.Failed)/float64(res.Attempted), "ratio")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if cfg.jsonOut != "" {
		rec, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: btoi(cfg.trace), Result: res})
		if err != nil {
			return err
		}
		f, err := os.OpenFile(cfg.jsonOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(rec, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so heap, GC state
// and peak RSS are per workload.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cutbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads(cfg.smoke) {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", fmt.Sprint(btoi(cfg.trace)), "-mincutd", cfg.mincutd, "-workdir", cfg.workdir,
			"-json", cfg.jsonOut, "-smoke=" + fmt.Sprint(cfg.smoke)}
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", cfg.traceOut+"."+w.name)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "cutbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runCompare implements -compare base.json new.json with the bounds of
// BENCHMARK.json in the current directory. It exits 1 when a workload got
// worse.
func runCompare(files []string, stdout, stderr io.Writer) int {
	const benchFile = "BENCHMARK.json"
	if len(files) != 2 {
		fmt.Fprintln(stderr, "usage: cutbench -compare base.json new.json (from the repository root)")
		return 2
	}
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		fmt.Fprintf(stderr, "cutbench: %v\n", err)
		return 1
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintf(stderr, "cutbench: %s: %v\n", benchFile, err)
		return 1
	}
	base, err := readRecords(files[0])
	if err != nil {
		fmt.Fprintf(stderr, "cutbench: %v\n", err)
		return 1
	}
	cur, err := readRecords(files[1])
	if err != nil {
		fmt.Fprintf(stderr, "cutbench: %v\n", err)
		return 1
	}
	if compareRuns(def, base, cur, stdout) {
		return 1
	}
	return 0
}
