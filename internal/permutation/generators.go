package permutation

import (
	"fmt"
	"math/rand"
)

// Identity returns the permutation i→i for all i.
func Identity(n int) *Permutation {
	p := New(n)
	for i := 0; i < n; i++ {
		p.dst[i] = i
	}
	return p
}

// Random returns a uniformly random full permutation drawn from rng
// (Fisher–Yates). Deterministic for a fixed seed.
func Random(rng *rand.Rand, n int) *Permutation {
	p := New(n)
	RandomInto(rng, p)
	return p
}

// RandomInto refills p in place with a uniformly random full permutation,
// drawing from rng exactly as Random does — same values consumed, same
// pattern produced — without allocating. It is the per-trial hot path of
// the randomized sweeps.
func RandomInto(rng *rand.Rand, p *Permutation) {
	permInto(rng, p.dst[:0], len(p.dst))
}

// permInto is rand.Perm writing into a reused buffer: the identical
// Fisher–Yates loop (including the i = 0 self-swap rand.Perm keeps for
// draw compatibility), so a shared rng yields the same sequence either way.
func permInto(rng *rand.Rand, buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	} else {
		buf = buf[:n]
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// PatternScratch pools the index buffers RandomPartialInto needs between
// trials. The zero value is ready to use; NewPatternScratch pre-sizes the
// buffers so no trial allocates at all.
type PatternScratch struct {
	sources, dests, order []int
}

// NewPatternScratch returns a scratch whose buffers already hold n
// endpoints, making every subsequent RandomPartialInto allocation-free.
func NewPatternScratch(n int) *PatternScratch {
	return &PatternScratch{
		sources: make([]int, 0, n),
		dests:   make([]int, 0, n),
		order:   make([]int, 0, n),
	}
}

// RandomPartialInto is RandomPartial refilling a reused pattern and
// drawing its index buffers from sc: identical rng consumption and result,
// no per-trial allocation once sc's buffers have grown to n.
func RandomPartialInto(rng *rand.Rand, p *Permutation, density float64, sc *PatternScratch) {
	if density < 0 || density > 1 {
		panic(fmt.Sprintf("permutation: density %v out of [0,1]", density))
	}
	n := len(p.dst)
	sources := sc.sources[:0]
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			sources = append(sources, i)
		}
	}
	sc.sources = sources
	// RandomPartial draws a full n-element Perm and truncates; mirror that.
	sc.dests = permInto(rng, sc.dests, n)
	sc.order = permInto(rng, sc.order, len(sources))
	for i := range p.dst {
		p.dst[i] = Unused
	}
	for i, s := range sources {
		p.dst[s] = sc.dests[sc.order[i]]
	}
}

// RandomAmongInto refills p with a uniform permutation among hosts: source
// hosts[i] sends to hosts[π(i)], where π is drawn exactly as
// rng.Perm(len(hosts)) draws it, and every other endpoint is Unused. hosts
// must be distinct endpoints of p. The index buffer comes from sc, so once
// it has grown to len(hosts) no draw allocates.
func RandomAmongInto(rng *rand.Rand, p *Permutation, hosts []int, sc *PatternScratch) {
	sc.dests = permInto(rng, sc.dests, len(hosts))
	for i := range p.dst {
		p.dst[i] = Unused
	}
	for i, j := range sc.dests {
		p.dst[hosts[i]] = hosts[j]
	}
}

// Shift returns the cyclic shift i→(i+k) mod n. Shift(n, 0) is the
// identity; with k a multiple of the per-switch host count it produces the
// switch-level shift patterns used in the bisection experiments.
func Shift(n, k int) *Permutation {
	p := New(n)
	for i := 0; i < n; i++ {
		p.dst[i] = ((i+k)%n + n) % n
	}
	return p
}

// Transpose returns the matrix-transpose pattern for n = rows·cols
// endpoints: endpoint (i, j) = i·cols+j sends to (j, i) = j·rows+i. This
// is the classic all-to-all building block that stresses fat-tree
// downlinks.
func Transpose(rows, cols int) *Permutation {
	n := rows * cols
	p := New(n)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			p.dst[i*cols+j] = j*rows + i
		}
	}
	return p
}

// BitReversal returns the bit-reversal permutation for n a power of two:
// endpoint b_{k−1}…b_0 sends to b_0…b_{k−1}. It panics when n is not a
// power of two.
func BitReversal(n int) *Permutation {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("permutation: BitReversal size %d is not a power of two", n))
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	p := New(n)
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		p.dst[i] = r
	}
	return p
}

// Neighbor returns the pairwise-exchange pattern: 2i ↔ 2i+1. For odd n the
// last endpoint sends to itself.
func Neighbor(n int) *Permutation {
	p := New(n)
	for i := 0; i+1 < n; i += 2 {
		p.dst[i] = i + 1
		p.dst[i+1] = i
	}
	if n%2 == 1 {
		p.dst[n-1] = n - 1
	}
	return p
}

// SwitchShift returns the pattern where every host of bottom switch v
// sends to the same-local-index host of switch (v+δ) mod r, for a folded
// Clos with r switches of n hosts each (endpoints v·n+k). Every SD pair
// crosses the top level, making it a bisection-stressing pattern.
func SwitchShift(n, r, delta int) *Permutation {
	p := New(n * r)
	for v := 0; v < r; v++ {
		w := ((v+delta)%r + r) % r
		for k := 0; k < n; k++ {
			p.dst[v*n+k] = w*n + k
		}
	}
	return p
}

// LocalRotate returns the pattern where host (v, k) sends to host
// (v+1 mod r, (k+v) mod n): every pair crosses switches and the local
// indices rotate per source switch, exercising many distinct top-level
// switches under index-based routings.
func LocalRotate(n, r int) *Permutation {
	p := New(n * r)
	for v := 0; v < r; v++ {
		w := (v + 1) % r
		for k := 0; k < n; k++ {
			p.dst[v*n+k] = w*n + (k+v)%n
		}
	}
	return p
}

// GreedyLowSpread builds an adversarial full permutation for the
// NONBLOCKINGADAPTIVE analysis on ftree(n+m, r) with r ≤ n^c: for each
// source switch in turn it greedily picks n distinct unused destination
// hosts whose partition keys (the local digit p and the shifted switch
// digits (s_i − p) mod n of §V) overlap the keys already chosen as much as
// possible, so every partition of a configuration can route only a small
// subset at a time. The result is a valid permutation by construction.
func GreedyLowSpread(n, r, c int) *Permutation {
	hosts := n * r
	p := New(hosts)
	usedDst := make([]bool, hosts)

	// Precompute every destination's partition keys and the inverted
	// index key→destinations, shared across source switches.
	keys := make([][]int, hosts)
	keyBucket := make([][][]int, c+1) // [partition][key] -> dests
	for i := 0; i <= c; i++ {
		keyBucket[i] = make([][]int, n)
	}
	for d := 0; d < hosts; d++ {
		sw, loc := d/n, d%n
		ks := make([]int, c+1)
		ks[0] = loc
		for i := 0; i < c; i++ {
			digit := sw % n
			sw /= n
			ks[i+1] = ((digit-loc)%n + n) % n
		}
		keys[d] = ks
		for i, key := range ks {
			keyBucket[i][key] = append(keyBucket[i][key], d)
		}
	}

	score := make([]int, hosts)
	for v := 0; v < r; v++ {
		// Fresh-key score per destination for this source switch; scores
		// only decrease as keys get used, so destinations sit in lazy
		// score buckets scanned from low to high.
		for d := range score {
			score[d] = c + 1
		}
		buckets := make([]intMinHeap, c+2)
		for d := 0; d < hosts; d++ {
			buckets[c+1] = append(buckets[c+1], d) // ascending: already a valid min-heap
		}
		seen := make([][]bool, c+1)
		for i := range seen {
			seen[i] = make([]bool, n)
		}
		pick := func() int {
			for s := 0; s <= c+1; s++ {
				for len(buckets[s]) > 0 {
					d := buckets[s].pop()
					if usedDst[d] || d/n == v || score[d] != s {
						continue // stale or ineligible entry
					}
					return d
				}
			}
			return -1
		}
		for k := 0; k < n; k++ {
			best := pick()
			if best == -1 {
				// Destinations exhausted (tiny r): fall back to any
				// unused, including intra-switch.
				for d := 0; d < hosts; d++ {
					if !usedDst[d] {
						best = d
						break
					}
				}
			}
			usedDst[best] = true
			p.dst[v*n+k] = best
			for i, key := range keys[best] {
				if seen[i][key] {
					continue
				}
				seen[i][key] = true
				for _, d := range keyBucket[i][key] {
					if !usedDst[d] && score[d] > 0 {
						score[d]--
						buckets[score[d]].push(d)
					}
				}
			}
		}
	}
	return p
}

// intMinHeap is a minimal binary min-heap of ints used by GreedyLowSpread
// to pop the lowest-indexed destination per score class.
type intMinHeap []int

func (h *intMinHeap) push(x int) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *intMinHeap) pop() int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l] < s[m] {
			m = l
		}
		if r < len(s) && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
