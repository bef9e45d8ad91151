package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupForksAfterEarlierBranchesFinished: a Group's join count drops
// to zero every time its branches so far have finished, and the forker
// then forks more. Wait must still join every branch, including ones
// forked after such a zero, and must not return early on a stale
// notification left by the earlier zeros.
func TestGroupForksAfterEarlierBranchesFinished(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		p := NewPool(w)
		g := p.Group()
		var ran atomic.Int32
		for i := 0; i < 20; i++ {
			done := make(chan struct{})
			g.Go(func() {
				ran.Add(1)
				close(done)
			})
			<-done
			for g.j != nil && g.j.pending.Load() != 0 {
				runtime.Gosched() // the branch has finished before the next is forked
			}
		}
		release := make(chan struct{})
		go func() {
			time.Sleep(20 * time.Millisecond)
			close(release)
		}()
		var late atomic.Bool
		g.Go(func() {
			<-release
			late.Store(true)
		})
		g.Wait()
		if ran.Load() != 20 || !late.Load() {
			t.Fatalf("width %d: Wait returned with %d of 20 early branches and the late one %v", w, ran.Load(), late.Load())
		}
		p.Close()
	}
}

// TestGroupOnClosedPool: on a closed pool, and on a width-1 pool, Go runs
// each branch inline before it returns, and Wait has nothing to join.
func TestGroupOnClosedPool(t *testing.T) {
	closed := NewPool(4)
	closed.Close()
	for _, p := range []*Pool{closed, NewPool(1)} {
		g := p.Group()
		for i := 0; i < 3; i++ {
			ran := false
			g.Go(func() { ran = true })
			if !ran {
				t.Fatalf("width %d (closed %v): branch %d did not run inline in Go", p.Width(), p.closed.Load(), i)
			}
		}
		g.Wait()
	}
	if st := closed.Stats(); st.Forks != 0 || st.InlineRuns != 3 {
		t.Fatalf("closed pool: Forks %d, InlineRuns %d, want 0 and 3", st.Forks, st.InlineRuns)
	}
}

// TestGroupInsideForGrain: groups forked and joined inside the branches
// of a parallel loop, with concurrent callers, all complete and run
// every branch exactly once (the joining caller helps run queued
// branches, so nesting cannot deadlock).
func TestGroupInsideForGrain(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	done := make(chan struct{})
	var sum atomic.Int64
	go func() {
		defer close(done)
		p.Do(
			func() {
				p.ForGrain(16, 1, func(i int) {
					g := p.Group()
					for k := 1; k <= 8; k++ {
						g.Go(func() {
							xs := make([]int64, 3*Grain)
							p.InclusiveSum(xs, xs)
							sum.Add(int64(k))
						})
					}
					g.Wait()
				})
			},
			func() {
				g := p.Group()
				for k := 0; k < 32; k++ {
					g.Go(func() { sum.Add(1) })
				}
				g.Wait()
			},
		)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested groups deadlocked")
	}
	if got, want := sum.Load(), int64(16*36+32); got != want {
		t.Fatalf("branches summed %d, want %d", got, want)
	}
}
