package main

import (
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on are often shared, and their speed
// drifts: on a 2-vCPU VM the same Stoer–Wagner call moves between about
// 40 ms and 65 ms from one few-second window to the next, with CPU time
// moving along with wall time. A run's median sits in whichever mode held
// most of the run, so raw timings of two runs minutes apart can differ by
// a quarter with no change to the code.
//
// Every end-to-end time is therefore scaled to a reference machine speed
// (the traced run's layer times are not). Right before each operation
// and each set-up the benchmark times speedProbe, a fixed piece of work
// written in this file and independent of the program, and multiplies
// the operation's or set-up's time by refProbe / probe. A change to the
// program moves the scaled times as it moves the raw ones; a slow stretch
// of the machine slows the probe as well and cancels out. The probe needs
// the machine to itself, so nothing else the benchmark drives may run
// while it does.

// refProbe is the probe time of the reference speed: scaled times are
// what the work would take on a machine where speedProbe takes refProbe.
const refProbe = 2 * time.Millisecond

// probeIters is how many read-modify-writes each probe goroutine makes
// at full size; refProbe is about its time on a 2-vCPU Xeon VM.
const probeIters = 600_000

// probeTables are speedProbe's working sets, one per CPU, allocated once.
var (
	probeOnce   sync.Once
	probeTables [][]uint64
)

// speedProbe times fixed work on every CPU at once: each goroutine makes
// iters pseudo-random read-modify-writes of its own 1 MiB table, a mix of
// cache misses and arithmetic like the solvers' graph scans. Measured
// against the repository's solvers, the probe's time tracks their speed
// drift closely, while a pure-arithmetic loop moves far less than they do.
func speedProbe(iters int) time.Duration {
	probeOnce.Do(func() {
		probeTables = make([][]uint64, runtime.GOMAXPROCS(0))
		for i := range probeTables {
			probeTables[i] = make([]uint64, 1<<17)
		}
	})
	start := time.Now()
	var wg sync.WaitGroup
	for k, tab := range probeTables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(k + 1)
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				tab[(x>>20)&(1<<17-1)] += x
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// speedScale runs w's probe and returns the factor that scales times
// measured right after it to the reference speed.
func (w workload) speedScale() float64 {
	return float64(refProbe) / float64(speedProbe(w.probeIters))
}
