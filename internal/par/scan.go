package par

// ExclusiveSum replaces xs with its exclusive prefix sums and returns the
// total: out[i] = xs[0] + ... + xs[i-1]. It writes into out, which must
// have len(xs); xs and out may alias.
func (p *Pool) ExclusiveSum(xs, out []int64) int64 {
	p = p.get()
	n := len(xs)
	if n == 0 {
		return 0
	}
	if p.width == 1 || n <= p.cut.scan {
		return seqExclusive(xs, out)
	}
	chunks := p.numChunks(n)
	size := (n + chunks - 1) / chunks
	sp, sums := p.getScratch(chunks)
	defer p.putScratch(sp)
	p.ForChunk(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			var s int64
			for _, x := range xs[lo:hi] {
				s += x
			}
			sums[c] = s
		}
	})
	var total int64
	for c := 0; c < chunks; c++ {
		s := sums[c]
		sums[c] = total
		total += s
	}
	p.ForChunk(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			acc := sums[c]
			for i := lo; i < hi; i++ {
				x := xs[i]
				out[i] = acc
				acc += x
			}
		}
	})
	return total
}

// InclusiveSum writes out[i] = xs[0] + ... + xs[i] and returns the total.
// xs and out may alias.
func (p *Pool) InclusiveSum(xs, out []int64) int64 {
	p = p.get()
	n := len(xs)
	if n == 0 {
		return 0
	}
	if p.width == 1 || n <= p.cut.scan {
		var acc int64
		for i, x := range xs {
			acc += x
			out[i] = acc
		}
		return acc
	}
	chunks := p.numChunks(n)
	size := (n + chunks - 1) / chunks
	sp, sums := p.getScratch(chunks)
	defer p.putScratch(sp)
	p.ForChunk(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			var s int64
			for _, x := range xs[lo:hi] {
				s += x
			}
			sums[c] = s
		}
	})
	var total int64
	for c := 0; c < chunks; c++ {
		s := sums[c]
		sums[c] = total
		total += s
	}
	p.ForChunk(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			acc := sums[c]
			for i := lo; i < hi; i++ {
				acc += xs[i]
				out[i] = acc
			}
		}
	})
	return total
}

func seqExclusive(xs, out []int64) int64 {
	var acc int64
	for i, x := range xs {
		out[i] = acc
		acc += x
	}
	return acc
}

// SegmentedBroadcast propagates values forward through a mixed sequence:
// present[i] reports whether position i carries a value in vals; after the
// call, out[i] holds the value at the nearest position j <= i with
// present[j], or initial if there is none. It implements the "each ∆-value
// broadcasts itself to all following queries" step of paper §3.2 as a scan
// with the "last defined value" semigroup. vals and out may alias.
func (p *Pool) SegmentedBroadcast(present []bool, vals, out []int64, initial int64) {
	p = p.get()
	n := len(present)
	if n == 0 {
		return
	}
	if p.width == 1 || n <= p.cut.scan {
		acc := initial
		for i := 0; i < n; i++ {
			if present[i] {
				acc = vals[i]
			}
			out[i] = acc
		}
		return
	}
	chunks := p.numChunks(n)
	size := (n + chunks - 1) / chunks
	lp, last := p.getScratch(chunks)
	cp, carry := p.getScratch(chunks)
	defer p.putScratch(lp)
	defer p.putScratch(cp)
	hp := p.arena.Bool(chunks)
	defer p.arena.PutBool(hp)
	has := *hp
	clear(has)
	p.ForChunk(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			for i := hi - 1; i >= lo; i-- {
				if present[i] {
					last[c], has[c] = vals[i], true
					break
				}
			}
		}
	})
	acc, defined := initial, true
	for c := 0; c < chunks; c++ {
		if defined {
			carry[c] = acc
		} else {
			carry[c] = initial
		}
		if has[c] {
			acc, defined = last[c], true
		}
	}
	p.ForChunk(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*size, (c+1)*size
			if hi > n {
				hi = n
			}
			acc := carry[c]
			for i := lo; i < hi; i++ {
				if present[i] {
					acc = vals[i]
				}
				out[i] = acc
			}
		}
	})
}
