package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mincutdBin is the mincutd binary the smoke tests run.
var mincutdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cutbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mincutdBin = filepath.Join(dir, "mincutd")
	if out, err := exec.Command("go", "build", "-o", mincutdBin, "repro/cmd/mincutd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build mincutd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads the metrics BENCHMARK.json declares: name → unit, for
// the untraced (end_to_end) and traced (per_layer) runs.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var def struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	index := func(ms []named) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return index(def.EndToEnd), index(def.PerLayer)
}

// TestSmoke runs every workload, untraced and traced, at smoke sizes
// through the command's entry point, the mincutd subprocess included. A
// run fails on a cut below the reference or a replay that disagrees with
// parcut.MinCut; beyond that every answer must be right and the result
// line must carry exactly BENCHMARK.json's metrics, with finite values.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads(true) {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				args := []string{"-smoke", "-workload", w.name, "-seed", "1", "-seconds", "0",
					"-trace", trace, "-mincutd", mincutdBin, "-workdir", dir}
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
					if fi, err := os.Stat(filepath.Join(dir, "spans-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s in %s, declared %s", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
			})
		}
	}
}
