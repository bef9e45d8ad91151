package par

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Arena recycles the typed scratch slices of the solver hot loops. Every
// solve round in packing/scan/decomposition needs a handful of O(n) or
// O(m) working arrays that die at the end of the round; allocating them
// fresh each round made the garbage collector a hidden participant in the
// paper's work bound. An Arena is a set of per-type free-lists (built on
// sync.Pool, so idle memory is still reclaimable by the GC across
// cycles): borrow with the typed getters, return with the matching Put.
//
// Contract: borrowed slices have the requested length but UNSPECIFIED
// contents — callers either write every cell before reading it or clear
// the slice themselves. Returning a slice transfers ownership back; the
// caller must not retain any view of it.
//
// Each Pool owns one Arena (see Pool.Arena), so scratch reuse follows
// executor placement: every solve on a pool — all the scheduler workers'
// solves, which share one — recycles through that pool's free-lists, with
// no contention beyond sync.Pool's own per-P sharding. The zero Arena is
// ready to use.
type Arena struct {
	hits   atomic.Int64
	misses atomic.Int64

	int64s sync.Pool // *[]int64
	int32s sync.Pool // *[]int32
	bools  sync.Pool // *[]bool
	ai64s  sync.Pool // *[]atomic.Int64

	// typed holds free-lists created on demand for arbitrary element
	// types (key: reflect.Type, value: *sync.Pool). The named pools
	// above cover the scalar types the solver loops churn through;
	// Slice/PutSlice extend the same discipline to any T — recursion
	// frames, candidate records, algorithm-specific structs — without
	// growing this struct per type.
	typed sync.Map
}

// poolFor returns the free-list stored under key, creating it on first
// use. Keys are reflect.Types of pointer types, so looking one up never
// boxes a value onto the heap.
func poolFor(a *Arena, key any) *sync.Pool {
	if v, ok := a.typed.Load(key); ok {
		return v.(*sync.Pool)
	}
	v, _ := a.typed.LoadOrStore(key, new(sync.Pool))
	return v.(*sync.Pool)
}

// typedPool is the free-list of *[]T buffers, keyed by the *T type.
func typedPool[T any](a *Arena) *sync.Pool {
	return poolFor(a, reflect.TypeOf((*T)(nil)))
}

// framePool is the free-list of *F fork frames, keyed by the **F type
// so it can never collide with the *[]F list typedPool keys by *F.
func framePool[F any](a *Arena) *sync.Pool {
	return poolFor(a, reflect.TypeOf((**F)(nil)))
}

// Slice borrows a []T of length n (contents unspecified) from the
// arena's free-list for T. It is the generic face of the typed getters
// — same contract, same hit/miss accounting in Pool.Stats — and, like
// Merge/SortStable, a package function because Go does not allow
// generic methods.
func Slice[T any](a *Arena, n int) *[]T {
	return arenaGet[T](a, typedPool[T](a), n)
}

// PutSlice returns a slice borrowed with Slice.
func PutSlice[T any](a *Arena, sp *[]T) {
	typedPool[T](a).Put(sp)
}

// arenaGet reslices a recycled buffer to length n, or allocates one with
// some growth headroom when the free-list is empty or its buffer is too
// small (the undersized buffer is dropped for the GC; steady-state solves
// converge on max-sized buffers after the first round).
func arenaGet[T any](a *Arena, fl *sync.Pool, n int) *[]T {
	if v := fl.Get(); v != nil {
		sp := v.(*[]T)
		if cap(*sp) >= n {
			*sp = (*sp)[:n]
			a.hits.Add(1)
			return sp
		}
	}
	a.misses.Add(1)
	s := make([]T, n)
	return &s
}

// Int64 borrows a []int64 of length n (contents unspecified).
func (a *Arena) Int64(n int) *[]int64 { return arenaGet[int64](a, &a.int64s, n) }

// PutInt64 returns a slice borrowed with Int64.
func (a *Arena) PutInt64(sp *[]int64) { a.int64s.Put(sp) }

// Int32 borrows a []int32 of length n (contents unspecified).
func (a *Arena) Int32(n int) *[]int32 { return arenaGet[int32](a, &a.int32s, n) }

// PutInt32 returns a slice borrowed with Int32.
func (a *Arena) PutInt32(sp *[]int32) { a.int32s.Put(sp) }

// Bool borrows a []bool of length n (contents unspecified).
func (a *Arena) Bool(n int) *[]bool { return arenaGet[bool](a, &a.bools, n) }

// PutBool returns a slice borrowed with Bool.
func (a *Arena) PutBool(sp *[]bool) { a.bools.Put(sp) }

// AtomicInt64 borrows a []atomic.Int64 of length n (contents
// unspecified).
func (a *Arena) AtomicInt64(n int) *[]atomic.Int64 {
	return arenaGet[atomic.Int64](a, &a.ai64s, n)
}

// PutAtomicInt64 returns a slice borrowed with AtomicInt64.
func (a *Arena) PutAtomicInt64(sp *[]atomic.Int64) { a.ai64s.Put(sp) }

// Arena returns the pool's scratch arena (the default pool's for a nil
// receiver).
func (p *Pool) Arena() *Arena { return &p.get().arena }
