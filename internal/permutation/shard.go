package permutation

// Prefix sharding: the n! full permutations partition into shards
// identified by a fixed destination prefix — every permutation whose
// sources 0..k−1 send to prefix[0..k−1]. A length-k prefix shard holds
// (n−k)! patterns, and the n·(n−1)···(n−k+1) length-k shards are pairwise
// disjoint and cover the full space. Level 1 (k = 1) is the sharding the
// in-process parallel sweep uses; deeper levels exist so a distributed
// coordinator can cut the space into more shards than it has worker slots,
// keeping every worker busy and bounding the work lost when one shard must
// be retried.

// EnumerateFullPrefixSeq calls yield with every full permutation of n
// endpoints whose sources 0..len(prefix)−1 send to prefix[0..len(prefix)−1],
// in recursive lexicographic order over the remaining positions. It stops
// early when yield returns false and reports whether the shard completed.
// An out-of-range or repeated prefix destination denotes an empty shard
// (yield is never called, and the enumeration reports complete). The
// Permutation passed to yield is reused; clone to retain.
func EnumerateFullPrefixSeq(n int, prefix []int, yield func(*Permutation) bool) bool {
	if n <= 0 {
		return true
	}
	k := len(prefix)
	if k > n {
		return true // empty shard
	}
	p := New(n)
	used := make([]bool, n)
	for pos, d := range prefix {
		if d < 0 || d >= n || used[d] {
			return true // empty shard
		}
		used[d] = true
		p.dst[pos] = d
	}
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == n {
			return yield(p)
		}
		for d := 0; d < n; d++ {
			if used[d] {
				continue
			}
			used[d] = true
			p.dst[pos] = d
			if !rec(pos + 1) {
				used[d] = false
				p.dst[pos] = Unused
				return false
			}
			used[d] = false
			p.dst[pos] = Unused
		}
		return true
	}
	return rec(k)
}

// EnumerateFullPrefixSeqSwaps is EnumerateFullPrefixSeq with the swap
// structure of EnumerateFullSwaps exposed: Heap's algorithm runs over the
// n−len(prefix) unpinned positions, the first call presents the shard's
// seed pattern (the prefix followed by the remaining destinations in
// ascending order, matching EnumerateFullPrefixSeq's first pattern) with
// i = j = -1, and each later call names the two swapped source positions
// (both ≥ len(prefix)). An invalid prefix denotes an empty shard. With an
// empty prefix the enumeration is exactly EnumerateFullSwaps.
func EnumerateFullPrefixSeqSwaps(n int, prefix []int, yield func(p *Permutation, i, j int) bool) bool {
	if n <= 0 {
		return true
	}
	k := len(prefix)
	if k > n {
		return true // empty shard
	}
	p := New(n)
	used := make([]bool, n)
	for pos, d := range prefix {
		if d < 0 || d >= n || used[d] {
			return true // empty shard
		}
		used[d] = true
		p.dst[pos] = d
	}
	pos := k
	for d := 0; d < n; d++ {
		if !used[d] {
			p.dst[pos] = d
			pos++
		}
	}
	if !yield(p, -1, -1) {
		return false
	}
	m := n - k
	if m <= 1 {
		return true // the shard holds (n−k)! ≤ 1 patterns
	}
	c := make([]int, m) // Heap's algorithm over positions k..n-1
	i := 0
	for i < m {
		if c[i] < i {
			a := 0
			if i%2 == 1 {
				a = c[i]
			}
			p.dst[a+k], p.dst[i+k] = p.dst[i+k], p.dst[a+k]
			if !yield(p, a+k, i+k) {
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

// PrefixShards plans a prefix partition of the n! full permutations into
// at least minShards shards when possible: it starts from the n level-1
// shards and deepens the prefix one level at a time (n shards →
// n·(n−1) → …) until the count reaches minShards or the prefixes pin all
// but one position (beyond which deepening cannot split further). Shards
// are returned in lexicographic prefix order — the order a coordinator
// must merge them in to reproduce the sequential shard merge — and every
// returned prefix has the same length.
func PrefixShards(n, minShards int) [][]int {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return [][]int{{0}}
	}
	shards := make([][]int, 0, n)
	for d := 0; d < n; d++ {
		shards = append(shards, []int{d})
	}
	for len(shards) < minShards && len(shards[0]) < n-1 {
		next := make([][]int, 0, len(shards)*(n-len(shards[0])))
		for _, pfx := range shards {
			used := make([]bool, n)
			for _, d := range pfx {
				used[d] = true
			}
			for d := 0; d < n; d++ {
				if used[d] {
					continue
				}
				child := make([]int, len(pfx)+1)
				copy(child, pfx)
				child[len(pfx)] = d
				next = append(next, child)
			}
		}
		shards = next
	}
	return shards
}
