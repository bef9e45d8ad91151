package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// chanRef reproduces the executor this package shipped before Pool: one
// shared buffered channel of tasks, workers pulling from it, and forks
// degrading to inline execution the moment the channel is full. It exists
// only as the benchmark reference for BenchmarkForkJoinBurst — the bursty
// nested fork-join shape where the single channel collapses to sequential
// execution (every fork past the small buffer runs inline on the forking
// goroutine) while Pool's unbounded queue keeps the burst distributed.
type chanRef struct {
	tasks chan func()
	stop  chan struct{}
	wg    sync.WaitGroup
}

func newChanRef(width int) *chanRef {
	// Queue depth 8*width and the fork/wait mechanics below match the
	// replaced implementation exactly.
	p := &chanRef{tasks: make(chan func(), 8*width), stop: make(chan struct{})}
	for i := 0; i < width-1; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case f := <-p.tasks:
					f()
				case <-p.stop:
					return
				}
			}
		}()
	}
	return p
}

func (p *chanRef) close() {
	close(p.stop)
	p.wg.Wait()
}

type chanJoin struct {
	pending atomic.Int32
	note    chan struct{}
}

// do runs a inline and b on the pool (inline when the queue is full),
// helping drain the shared channel while joining — the channel-era
// equivalent of Pool.Do with two functions.
func (p *chanRef) do(a, b func()) {
	j := &chanJoin{note: make(chan struct{}, 1)}
	j.pending.Add(1)
	wrapped := func() {
		b()
		if j.pending.Add(-1) == 0 {
			select {
			case j.note <- struct{}{}:
			default:
			}
		}
	}
	select {
	case p.tasks <- wrapped:
		a()
		for j.pending.Load() != 0 {
			select {
			case <-j.note:
			case f := <-p.tasks:
				f()
			}
		}
	default:
		// Saturated: degrade to inline execution.
		j.pending.Add(-1)
		b()
		a()
	}
}

// burstLeaf is enough work that a leaf is not free, but little enough
// that dispatch overhead dominates — the regime where inline collapse
// shows.
func burstLeaf(acc *int64) {
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < 64; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	*acc += int64(x)
}

// BenchmarkForkJoinBurst compares Pool against the old single-channel
// design on a binary fork tree of depth 9 (511 forks, 512 leaves per op):
// the saturation-collapse shape. Run with -count=N and benchstat to
// compare medians.
func BenchmarkForkJoinBurst(b *testing.B) {
	const width, depth = 4, 9
	b.Run("pool", func(b *testing.B) {
		p := NewPool(width)
		defer p.Close()
		var acc int64
		var rec func(d int)
		rec = func(d int) {
			if d == 0 {
				burstLeaf(&acc)
				return
			}
			p.Do(func() { rec(d - 1) }, func() { rec(d - 1) })
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec(depth)
		}
	})
	b.Run("channel", func(b *testing.B) {
		p := newChanRef(width)
		defer p.close()
		var acc int64
		var rec func(d int)
		rec = func(d int) {
			if d == 0 {
				burstLeaf(&acc)
				return
			}
			p.do(func() { rec(d - 1) }, func() { rec(d - 1) })
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec(depth)
		}
	})
}

// BenchmarkArenaInt64 pins the arena's core contract: a steady-state
// borrow/return cycle is allocation-free.
func BenchmarkArenaInt64(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	ar := p.Arena()
	sp := ar.Int64(1 << 16)
	ar.PutInt64(sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := ar.Int64(1 << 16)
		(*sp)[0] = int64(i)
		ar.PutInt64(sp)
	}
}

// BenchmarkScanArenaSteadyState measures the sequential scan path end to
// end at a solver-typical size; with the arena warm it must report
// 0 allocs/op.
func BenchmarkScanArenaSteadyState(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	n := 1 << 17
	xs := make([]int64, n)
	out := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 7)
	}
	var sink int64
	sink += p.ExclusiveSum(xs, out)
	b.SetBytes(int64(n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += p.ExclusiveSum(xs, out)
	}
	_ = sink
}
