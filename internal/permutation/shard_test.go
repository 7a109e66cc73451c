package permutation

import (
	"fmt"
	"testing"
)

// factorial for tiny n (test sizes only).
func fact(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// TestPrefixShardsPartition: for every planned shard set, the per-shard
// enumerations are pairwise disjoint and their union is exactly the full
// n! enumeration; shard sizes are (n−k)! each; prefixes come out in
// lexicographic order with uniform length.
func TestPrefixShardsPartition(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for _, minShards := range []int{0, 1, n, n + 1, n * (n - 1), n*(n-1) + 1, 1 << 10} {
			shards := PrefixShards(n, minShards)
			if len(shards) == 0 {
				t.Fatalf("n=%d min=%d: no shards", n, minShards)
			}
			k := len(shards[0])
			want := fact(n) / fact(n-k)
			if len(shards) != want {
				t.Fatalf("n=%d min=%d: %d shards of level %d, want %d", n, minShards, len(shards), k, want)
			}
			if minShards > len(shards) && k < n-1 {
				t.Fatalf("n=%d min=%d: stopped at %d shards with room to deepen", n, minShards, len(shards))
			}
			seen := make(map[string]int)
			prevPfx := ""
			for _, pfx := range shards {
				if len(pfx) != k {
					t.Fatalf("n=%d: mixed prefix lengths", n)
				}
				s := fmt.Sprint(pfx)
				if prevPfx != "" && s <= prevPfx && len(fmt.Sprint(pfx)) == len(prevPfx) {
					t.Fatalf("n=%d: shards out of lexicographic order: %s after %s", n, s, prevPfx)
				}
				prevPfx = s
				count := 0
				EnumerateFullPrefixSeq(n, pfx, func(p *Permutation) bool {
					count++
					seen[p.String()]++
					return true
				})
				if count != fact(n-k) {
					t.Fatalf("n=%d shard %v: %d patterns, want %d", n, pfx, count, fact(n-k))
				}
			}
			total := 0
			EnumerateFull(n, func(p *Permutation) bool {
				total++
				if seen[p.String()] != 1 {
					t.Fatalf("n=%d: pattern %s covered %d times", n, p, seen[p.String()])
				}
				return true
			})
			if total != len(seen) {
				t.Fatalf("n=%d: shards produced %d distinct patterns, full enumeration %d", n, len(seen), total)
			}
		}
	}
}

// TestPrefixSeqSwapsMatchesSingleLevel pins the generalized swap
// enumerator to the historical single-level one for k=1 — same patterns,
// same order, same swap indices — so rewriting EnumerateFullPrefixSwaps as
// a wrapper cannot have changed the parallel delta sweep's enumeration.
func TestPrefixSeqSwapsMatchesSingleLevel(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for d0 := 0; d0 < n; d0++ {
			type step struct {
				pat  string
				i, j int
			}
			var a, b []step
			EnumerateFullPrefixSwaps(n, d0, func(p *Permutation, i, j int) bool {
				a = append(a, step{p.String(), i, j})
				return true
			})
			EnumerateFullPrefixSeqSwaps(n, []int{d0}, func(p *Permutation, i, j int) bool {
				b = append(b, step{p.String(), i, j})
				return true
			})
			if len(a) != len(b) {
				t.Fatalf("n=%d d0=%d: %d vs %d steps", n, d0, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("n=%d d0=%d step %d: %+v vs %+v", n, d0, x, a[x], b[x])
				}
			}
		}
	}
}

// TestPrefixSeqSwapsDeep checks the deep-prefix swap enumerator: seed
// pattern matches EnumerateFullPrefixSeq's first pattern, every reported
// swap bridges consecutive patterns, swaps never touch pinned positions,
// and the pattern set equals the sequential shard's.
func TestPrefixSeqSwapsDeep(t *testing.T) {
	cases := [][]int{{0, 1}, {2, 0}, {3, 1, 0}, {1, 2, 3, 0}, {}}
	const n = 5
	for _, pfx := range cases {
		k := len(pfx)
		var seq []string
		EnumerateFullPrefixSeq(n, pfx, func(p *Permutation) bool {
			seq = append(seq, p.String())
			return true
		})
		set := make(map[string]bool, len(seq))
		for _, s := range seq {
			set[s] = true
		}
		var prev []int
		idx := 0
		ok := EnumerateFullPrefixSeqSwaps(n, pfx, func(p *Permutation, i, j int) bool {
			if idx == 0 {
				if i != -1 || j != -1 {
					t.Fatalf("pfx=%v: first yield reported swap (%d,%d)", pfx, i, j)
				}
				if len(seq) > 0 && p.String() != seq[0] {
					t.Fatalf("pfx=%v: seed %s, want %s", pfx, p, seq[0])
				}
			} else {
				if i < k || j < k || i >= n || j >= n || i == j {
					t.Fatalf("pfx=%v step %d: invalid swap (%d,%d)", pfx, idx, i, j)
				}
				prev[i], prev[j] = prev[j], prev[i]
				for s := 0; s < n; s++ {
					if p.Dst(s) != prev[s] {
						t.Fatalf("pfx=%v step %d: swap (%d,%d) does not bridge", pfx, idx, i, j)
					}
				}
			}
			if !set[p.String()] {
				t.Fatalf("pfx=%v: pattern %s outside the shard", pfx, p)
			}
			prev = prev[:0]
			for s := 0; s < n; s++ {
				prev = append(prev, p.Dst(s))
			}
			idx++
			return true
		})
		if !ok || idx != len(seq) {
			t.Fatalf("pfx=%v: yielded %d of %d", pfx, idx, len(seq))
		}
	}
}

// TestPrefixSeqInvalidPrefixes: invalid prefixes are empty shards, and an
// empty prefix reproduces the full enumeration.
func TestPrefixSeqInvalidPrefixes(t *testing.T) {
	for _, pfx := range [][]int{{-1}, {4}, {0, 0}, {1, 2, 3, 0, 2}, {0, 1, 2, 3, 0}} {
		n := 4
		count := 0
		if !EnumerateFullPrefixSeq(n, pfx, func(*Permutation) bool { count++; return true }) || count != 0 {
			t.Fatalf("seq pfx=%v: %d patterns from invalid prefix", pfx, count)
		}
		count = 0
		if !EnumerateFullPrefixSeqSwaps(n, pfx, func(*Permutation, int, int) bool { count++; return true }) || count != 0 {
			t.Fatalf("swaps pfx=%v: %d patterns from invalid prefix", pfx, count)
		}
	}
	count := 0
	EnumerateFullPrefixSeqSwaps(4, nil, func(*Permutation, int, int) bool { count++; return true })
	if count != fact(4) {
		t.Fatalf("empty prefix: %d patterns, want %d", count, fact(4))
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// EnumerateFullPrefix calls yield with every full permutation of n
// endpoints whose first source is fixed to send to dst0 — one shard of the
// full enumeration, enabling parallel exhaustive sweeps: the n shards
// dst0 = 0..n−1 partition the n! permutations into n independent batches
// of (n−1)! patterns each. The Permutation passed to yield is reused;
// clone to retain. Stops early when yield returns false and reports
// whether the shard completed.
func EnumerateFullPrefix(n, dst0 int, yield func(*Permutation) bool) bool {
	if n <= 0 {
		return true
	}
	if dst0 < 0 || dst0 >= n {
		return true // empty shard
	}
	return EnumerateFullPrefixSeq(n, []int{dst0}, yield)
}

// EnumerateFullPrefixSwaps enumerates the same shard as
// EnumerateFullPrefix — every full permutation whose first source sends to
// dst0 — but via Heap's algorithm over the remaining n−1 positions, so
// successive patterns differ by exactly one swap of two destinations. The
// swap positions are reported to yield exactly as in EnumerateFullSwaps:
// the first call presents the shard's seed pattern (dst0 followed by the
// remaining destinations in ascending order, matching EnumerateFullPrefix's
// first pattern) with i = j = -1, and each later call names the two source
// positions (both ≥ 1; source 0 is pinned) whose destinations were
// exchanged. This is the per-shard engine behind the parallel delta sweep:
// the n shards dst0 = 0..n−1 partition the n! patterns, and each shard is
// delta-friendly internally.
func EnumerateFullPrefixSwaps(n, dst0 int, yield func(p *Permutation, i, j int) bool) bool {
	if n <= 0 {
		return true
	}
	if dst0 < 0 || dst0 >= n {
		return true // empty shard
	}
	return EnumerateFullPrefixSeqSwaps(n, []int{dst0}, yield)
}
