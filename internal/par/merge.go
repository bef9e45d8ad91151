package par

import "sort"

// MergeOn merges the sorted slices a and b into out (len(out) must be
// len(a)+len(b)) on the pool p, using the strict-weak ordering less. The
// merge is stable: on ties, elements of a precede elements of b. Large
// merges split in parallel by the classic median/binary-search scheme
// (Cole-style merging, the primitive the paper cites for its O(log) depth
// merge [7]). Forked branches are described by recycled frames rather
// than fresh closures, so steady-state merges allocate nothing. MergeOn
// and SortStableOn are package functions rather than Pool methods because
// Go does not allow generic methods.
func MergeOn[T any](p *Pool, a, b, out []T, less func(x, y T) bool) {
	if len(out) != len(a)+len(b) {
		panic("par: Merge output length mismatch")
	}
	p = p.get()
	mergeRec(p, a, b, out, less, p.cut.merge, false)
}

// mergeFrame carries the arguments of a forked mergeRec branch plus a
// run closure pre-bound to the frame. The closure is built once per
// frame lifetime and the frame recycles through the arena's typed
// free-lists, so forking costs no allocation after warm-up (the former
// closure-per-fork scheme cost ~31 allocs/op on a 1M-element merge).
type mergeFrame[T any] struct {
	p         *Pool
	a, b, out []T
	less      func(x, y T) bool
	cutoff    int
	flip      bool
	run       func()
}

func newMergeFrame[T any](p *Pool, a, b, out []T, less func(x, y T) bool, cutoff int, flip bool) *mergeFrame[T] {
	var fr *mergeFrame[T]
	if v := framePool[mergeFrame[T]](&p.arena).Get(); v != nil {
		fr = v.(*mergeFrame[T])
	} else {
		fr = new(mergeFrame[T])
		fr.run = fr.exec
	}
	fr.p, fr.a, fr.b, fr.out, fr.less, fr.cutoff, fr.flip = p, a, b, out, less, cutoff, flip
	return fr
}

func (fr *mergeFrame[T]) exec() {
	mergeRec(fr.p, fr.a, fr.b, fr.out, fr.less, fr.cutoff, fr.flip)
}

// release returns the frame to its free-list. Only safe once the forked
// branch has been joined: the join's pending count drops after exec
// returns, so a caller past p.wait holds the only reference.
func (fr *mergeFrame[T]) release() {
	a := &fr.p.arena
	fr.p, fr.a, fr.b, fr.out, fr.less = nil, nil, nil, nil, nil
	framePool[mergeFrame[T]](a).Put(fr)
}

// mergeRec merges a and b into out. With flip false, elements of a win
// ties (a is logically first); with flip true, elements of b win. One
// function with a flip bit — rather than the former mergeRec /
// mergeRecFlipped pair — lets the forked branch be a recycled frame.
func mergeRec[T any](p *Pool, a, b, out []T, less func(x, y T) bool, cutoff int, flip bool) {
	if len(a) < len(b) {
		// Keep a as the physically larger side so the split point is
		// well-defined; swapping sides flips the tie-break.
		a, b = b, a
		flip = !flip
	}
	if len(b) == 0 {
		copy(out, a)
		return
	}
	if p.width == 1 || len(a)+len(b) <= cutoff {
		if flip {
			seqMerge(b, a, out, less)
		} else {
			seqMerge(a, b, out, less)
		}
		return
	}
	i := len(a) / 2
	var j int
	if flip {
		// First j with a[i] < b[j]: b elements tied with a[i] land to its
		// left (b is logically first here).
		j = sort.Search(len(b), func(j int) bool { return less(a[i], b[j]) })
	} else {
		// First j with b[j] >= a[i]: b elements tied with a[i] land to its
		// right, keeping a-before-b stability.
		j = sort.Search(len(b), func(j int) bool { return !less(b[j], a[i]) })
	}
	out[i+j] = a[i]
	fr := newMergeFrame(p, a[i+1:], b[j:], out[i+j+1:], less, cutoff, flip)
	jn := p.getJoin()
	if p.fork(jn, task{f: fr.run}) {
		mergeRec(p, a[:i], b[:j], out[:i+j], less, cutoff, flip)
		p.wait(jn)
	} else {
		mergeRec(p, a[:i], b[:j], out[:i+j], less, cutoff, flip)
		fr.exec()
	}
	p.putJoin(jn)
	fr.release()
}

func seqMerge[T any](a, b, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// SortStableOn sorts xs in place, stably, on the pool p, using parallel
// merge sort with sequential sorted runs at the leaves. It is the parallel
// sorting primitive of Lemma 12 / §3.1.1 (stable sort by vertex, sort by
// time). The ping-pong buffer is borrowed from the pool's arena, so
// steady-state sorts do not pay an O(n) allocation per call.
func SortStableOn[T any](p *Pool, xs []T, less func(x, y T) bool) {
	p = p.get()
	n := len(xs)
	if n <= 1 {
		return
	}
	bufp := Slice[T](&p.arena, n)
	if p.width == 1 || n <= p.cut.sort {
		seqSortStable(xs, *bufp, less)
	} else {
		sortInto(p, xs, *bufp, less, true, p.cut.sort, p.cut.merge)
	}
	PutSlice(&p.arena, bufp)
}

// sortFrame is the recycled fork descriptor for sortInto's right
// branch; see mergeFrame.
type sortFrame[T any] struct {
	p        *Pool
	src, dst []T
	less     func(x, y T) bool
	inSrc    bool
	sortCut  int
	mergeCut int
	run      func()
}

func newSortFrame[T any](p *Pool, src, dst []T, less func(x, y T) bool, inSrc bool, sortCut, mergeCut int) *sortFrame[T] {
	var fr *sortFrame[T]
	if v := framePool[sortFrame[T]](&p.arena).Get(); v != nil {
		fr = v.(*sortFrame[T])
	} else {
		fr = new(sortFrame[T])
		fr.run = fr.exec
	}
	fr.p, fr.src, fr.dst, fr.less = p, src, dst, less
	fr.inSrc, fr.sortCut, fr.mergeCut = inSrc, sortCut, mergeCut
	return fr
}

func (fr *sortFrame[T]) exec() {
	sortInto(fr.p, fr.src, fr.dst, fr.less, fr.inSrc, fr.sortCut, fr.mergeCut)
}

func (fr *sortFrame[T]) release() {
	a := &fr.p.arena
	fr.p, fr.src, fr.dst, fr.less = nil, nil, nil, nil
	framePool[sortFrame[T]](a).Put(fr)
}

// sortInto sorts src; if inSrc is true the result ends in src, else in dst.
func sortInto[T any](p *Pool, src, dst []T, less func(x, y T) bool, inSrc bool, sortCut, mergeCut int) {
	n := len(src)
	if n <= sortCut {
		seqSortStable(src, dst, less)
		if !inSrc {
			copy(dst, src)
		}
		return
	}
	mid := n / 2
	if p.width == 1 || p.closed.Load() {
		sortInto(p, src[:mid], dst[:mid], less, !inSrc, sortCut, mergeCut)
		sortInto(p, src[mid:], dst[mid:], less, !inSrc, sortCut, mergeCut)
	} else {
		fr := newSortFrame(p, src[mid:], dst[mid:], less, !inSrc, sortCut, mergeCut)
		jn := p.getJoin()
		if p.fork(jn, task{f: fr.run}) {
			sortInto(p, src[:mid], dst[:mid], less, !inSrc, sortCut, mergeCut)
			p.wait(jn)
		} else {
			sortInto(p, src[:mid], dst[:mid], less, !inSrc, sortCut, mergeCut)
			fr.exec()
		}
		p.putJoin(jn)
		fr.release()
	}
	if inSrc {
		mergeRec(p, dst[:mid], dst[mid:], src, less, mergeCut, false)
	} else {
		mergeRec(p, src[:mid], src[mid:], dst, less, mergeCut, false)
	}
}

// seqSortStable is a reflection-free stable merge sort: insertion-sorted
// runs of 32 followed by bottom-up merges through buf. The result lands
// in xs.
func seqSortStable[T any](xs, buf []T, less func(x, y T) bool) {
	n := len(xs)
	const run = 32
	for lo := 0; lo < n; lo += run {
		hi := lo + run
		if hi > n {
			hi = n
		}
		for i := lo + 1; i < hi; i++ {
			x := xs[i]
			j := i - 1
			for j >= lo && less(x, xs[j]) {
				xs[j+1] = xs[j]
				j--
			}
			xs[j+1] = x
		}
	}
	src, dst := xs, buf
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			seqMerge(src[lo:mid], src[mid:hi], dst[lo:hi], less)
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
