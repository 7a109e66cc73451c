package permutation

// EnumerateFull calls yield with every full permutation of n endpoints,
// stopping early if yield returns false. It reports whether the
// enumeration ran to completion. The Permutation passed to yield is reused
// between calls; clone it to retain. Uses Heap's algorithm, so n! patterns
// are produced with O(1) work per step — practical for n ≤ 10.
//
// For deterministic routing, checking every full permutation suffices to
// decide nonblocking behaviour: routes do not depend on the pattern, and
// any contention in a partial permutation persists in each of its full
// extensions. Adaptive routing additionally requires partial patterns.
func EnumerateFull(n int, yield func(*Permutation) bool) bool {
	return EnumerateFullSwaps(n, func(p *Permutation, _, _ int) bool { return yield(p) })
}

// EnumerateFullSwaps is EnumerateFull with Heap's algorithm's swap
// structure exposed: yield additionally receives the two source positions
// i and j whose destinations were exchanged to reach this pattern from the
// previous one (i = j = -1 on the first call, which always presents the
// identity). Successive patterns differ by exactly that one swap, which is
// what lets delta-maintained contention engines (analysis.DeltaChecker)
// update per-link state in O(path length) per pattern instead of
// re-routing all n pairs. The enumeration order is identical to
// EnumerateFull's — EnumerateFull is a thin wrapper over this function.
func EnumerateFullSwaps(n int, yield func(p *Permutation, i, j int) bool) bool {
	p := Identity(n)
	if n <= 1 {
		return yield(p, -1, -1)
	}
	c := make([]int, n)
	if !yield(p, -1, -1) {
		return false
	}
	i := 0
	for i < n {
		if c[i] < i {
			a := 0
			if i%2 == 1 {
				a = c[i]
			}
			p.dst[a], p.dst[i] = p.dst[i], p.dst[a]
			if !yield(p, a, i) {
				return false
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return true
}

// CountFull returns n! as an int; it panics when the value would overflow,
// guarding exhaustive sweeps against absurd sizes.
func CountFull(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		nf := f * i
		if nf/i != f {
			panic("permutation: factorial overflow")
		}
		f = nf
	}
	return f
}
