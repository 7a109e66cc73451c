package analysis

import (
	"fmt"

	"repro/internal/permutation"
)

// Lemma 2 of the paper bounds how many SD pairs a single top-level switch
// of ftree(n+m, r) can carry when every link must satisfy the Lemma-1
// one-source-or-one-destination predicate: at most r(r−1) when r ≥ 2n+1
// and at most 2nr when r ≤ 2n+1. This file provides three independent
// evaluations of the true maximum on the Fig. 2 subgraph ftree(n+1, r):
//
//   - MaxRootPairsModes: exact search over canonical link-mode
//     assignments (every feasible pair set induces, per link, a
//     "single designated source" or "single designated destination"
//     mode; within-switch host relabeling makes host 0 the canonical
//     designee). Runs in r^r·r³ time — exact for r ≤ 7 in practice.
//   - MaxRootPairsNaive: branch-and-bound directly over SD-pair subsets,
//     feasible only for tiny (n, r); used to cross-validate the mode
//     search.
//   - RootSetWitness: constructive pair sets attaining the mode optimum,
//     validated by CheckRootSet.
//
// The experiments show the r ≥ 2n+1 branch of Lemma 2 is tight (attained
// by the Theorem-3 routing, r−1 pairs per link) while the 2nr branch is a
// safe over-estimate for r < 2n+1 — strengthening, not weakening,
// Theorem 1's negative result.

// upSrc and dnDst are the canonical "single designated endpoint" modes.
const (
	modeShared = -1 // up: single-source mode; down: single-destination mode
)

// lemma2f counts the SD pairs switch pair (v → w) contributes under
// canonical modes: uv is switch v's uplink mode (modeShared = all pairs
// from host 0 of v; t ≥ 0 = all pairs to host 0 of switch t) and dw is
// switch w's downlink mode (modeShared = all pairs to host 0 of w; u ≥ 0 =
// all pairs from host 0 of switch u).
func lemma2f(n, v, w, uv, dw int) int {
	switch {
	case uv == modeShared && dw == modeShared:
		return 1 // (host0(v) -> host0(w))
	case uv == modeShared && dw == v:
		return n // host0(v) -> every host of w
	case uv == w && dw == modeShared:
		return n // every host of v -> host0(w)
	case uv == w && dw == v:
		return 1 // (host0(v) -> host0(w)) under doubly-shared modes
	default:
		return 0
	}
}

// MaxRootPairsModes computes the exact maximum number of SD pairs (with
// source and destination in different switches) routable through the root
// of ftree(n+1, r) under the Lemma-1 link predicate, by exhausting
// canonical mode assignments. For each fixed vector of uplink modes the
// optimal downlink mode of every switch is independent, so the search
// costs r^r·r³.
func MaxRootPairsModes(n, r int) int {
	if n < 1 || r < 1 {
		panic(fmt.Sprintf("analysis: invalid Lemma-2 instance n=%d r=%d", n, r))
	}
	if r == 1 {
		return 0 // no cross-switch pairs exist
	}
	return lemma2SearchFrom(n, r, make([]int, r), 0)
}

// lemma2SearchFrom explores uplink modes for switches v.. and returns the
// best total, with up[0..v) already fixed.
func lemma2SearchFrom(n, r int, up []int, v int) int {
	if v == r {
		total := 0
		for w := 0; w < r; w++ {
			bestW := 0
			for dw := -1; dw < r; dw++ {
				if dw == w {
					continue
				}
				s := 0
				for x := 0; x < r; x++ {
					if x != w {
						s += lemma2f(n, x, w, up[x], dw)
					}
				}
				if s > bestW {
					bestW = s
				}
			}
			total += bestW
		}
		return total
	}
	best := 0
	try := func() {
		if t := lemma2SearchFrom(n, r, up, v+1); t > best {
			best = t
		}
	}
	up[v] = modeShared
	try()
	for t := 0; t < r; t++ {
		if t == v {
			continue
		}
		up[v] = t
		try()
	}
	return best
}

// RootSetWitness returns an explicit SD-pair set of size
// MaxRootPairsModes(n, r) that satisfies the Lemma-1 predicate on every
// link of ftree(n+1, r), by re-running the mode search and materializing
// the optimum. Hosts are numbered v·n+k.
func RootSetWitness(n, r int) []permutation.Pair {
	if r <= 1 {
		return nil
	}
	up := make([]int, r)
	bestUp := make([]int, r)
	bestDn := make([]int, r)
	best := -1
	var rec func(v int)
	rec = func(v int) {
		if v == r {
			total := 0
			dn := make([]int, r)
			for w := 0; w < r; w++ {
				bw, bd := -1, modeShared
				for dw := -1; dw < r; dw++ {
					if dw == w {
						continue
					}
					s := 0
					for x := 0; x < r; x++ {
						if x != w {
							s += lemma2f(n, x, w, up[x], dw)
						}
					}
					if s > bw {
						bw, bd = s, dw
					}
				}
				dn[w] = bd
				total += bw
			}
			if total > best {
				best = total
				copy(bestUp, up)
				copy(bestDn, dn)
			}
			return
		}
		up[v] = modeShared
		rec(v + 1)
		for t := 0; t < r; t++ {
			if t == v {
				continue
			}
			up[v] = t
			rec(v + 1)
		}
	}
	rec(0)

	var pairs []permutation.Pair
	host0 := func(v int) int { return v * n }
	for v := 0; v < r; v++ {
		for w := 0; w < r; w++ {
			if v == w {
				continue
			}
			switch {
			case bestUp[v] == modeShared && bestDn[w] == modeShared:
				pairs = append(pairs, permutation.Pair{Src: host0(v), Dst: host0(w)})
			case bestUp[v] == modeShared && bestDn[w] == v:
				for k := 0; k < n; k++ {
					pairs = append(pairs, permutation.Pair{Src: host0(v), Dst: w*n + k})
				}
			case bestUp[v] == w && bestDn[w] == modeShared:
				for k := 0; k < n; k++ {
					pairs = append(pairs, permutation.Pair{Src: v*n + k, Dst: host0(w)})
				}
			case bestUp[v] == w && bestDn[w] == v:
				pairs = append(pairs, permutation.Pair{Src: host0(v), Dst: host0(w)})
			}
		}
	}
	return pairs
}

// CheckRootSet verifies that routing the given cross-switch SD pairs
// through the single root of ftree(n+1, r) satisfies the Lemma-1 predicate
// on every uplink (source switch → root) and downlink (root → destination
// switch). It returns an error naming the first violated link.
func CheckRootSet(n, r int, pairs []permutation.Pair) error {
	// Flat-array distinct-endpoint accounting: hosts are dense in
	// [0, n·r), so each of the 2r links tracks its distinct sources and
	// destinations with a boolean row plus a counter instead of maps.
	hosts := n * r
	type view struct {
		srcSeen, dstSeen []bool
		srcs, dsts       int
	}
	views := make([]view, 2*r) // uplink of switch v at [v], downlink at [r+v]
	marks := make([]bool, 4*r*hosts)
	for i := range views {
		views[i].srcSeen = marks[(2*i)*hosts : (2*i+1)*hosts]
		views[i].dstSeen = marks[(2*i+1)*hosts : (2*i+2)*hosts]
	}
	add := func(v *view, src, dst int) {
		if !v.srcSeen[src] {
			v.srcSeen[src] = true
			v.srcs++
		}
		if !v.dstSeen[dst] {
			v.dstSeen[dst] = true
			v.dsts++
		}
	}
	seen := make([]bool, hosts*hosts)
	for _, p := range pairs {
		if p.Src < 0 || p.Src >= hosts || p.Dst < 0 || p.Dst >= hosts {
			return fmt.Errorf("analysis: pair %v out of range", p)
		}
		sv, dv := p.Src/n, p.Dst/n
		if sv == dv {
			return fmt.Errorf("analysis: pair %v does not cross the root", p)
		}
		if seen[p.Src*hosts+p.Dst] {
			return fmt.Errorf("analysis: duplicate pair %v", p)
		}
		seen[p.Src*hosts+p.Dst] = true
		add(&views[sv], p.Src, p.Dst)
		add(&views[r+dv], p.Src, p.Dst)
	}
	for v := 0; v < r; v++ {
		if up := &views[v]; up.srcs > 1 && up.dsts > 1 {
			return fmt.Errorf("analysis: uplink of switch %d carries %d sources and %d destinations", v, up.srcs, up.dsts)
		}
		if dn := &views[r+v]; dn.srcs > 1 && dn.dsts > 1 {
			return fmt.Errorf("analysis: downlink of switch %d carries %d sources and %d destinations", v, dn.srcs, dn.dsts)
		}
	}
	return nil
}

// MaxRootPairsNaive computes the Lemma-2 maximum by branch-and-bound
// directly over subsets of the r(r−1)n² candidate SD pairs, with the
// Lemma-1 predicate enforced incrementally per link. Exponential — keep
// n·r small (n·n·r·(r−1) ≲ 40 candidates). Used to cross-validate
// MaxRootPairsModes.
func MaxRootPairsNaive(n, r int) int {
	type cand struct{ s, d, sv, dv int }
	var cands []cand
	for sv := 0; sv < r; sv++ {
		for dv := 0; dv < r; dv++ {
			if sv == dv {
				continue
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					cands = append(cands, cand{sv*n + i, dv*n + j, sv, dv})
				}
			}
		}
	}
	type lstate struct {
		srcs, dsts map[int]int // endpoint -> multiplicity
	}
	mk := func() lstate { return lstate{map[int]int{}, map[int]int{}} }
	ups := make([]lstate, r)
	downs := make([]lstate, r)
	for i := range ups {
		ups[i], downs[i] = mk(), mk()
	}
	ok := func(l lstate) bool { return len(l.srcs) <= 1 || len(l.dsts) <= 1 }
	add := func(l lstate, s, d int) { l.srcs[s]++; l.dsts[d]++ }
	del := func(l lstate, s, d int) {
		if l.srcs[s]--; l.srcs[s] == 0 {
			delete(l.srcs, s)
		}
		if l.dsts[d]--; l.dsts[d] == 0 {
			delete(l.dsts, d)
		}
	}
	best := 0
	// Include-first DFS so the incumbent rises quickly, with the trivial
	// cur+remaining bound for pruning.
	var rec2 func(i, cur int)
	rec2 = func(i, cur int) {
		if i == len(cands) {
			if cur > best {
				best = cur
			}
			return
		}
		if cur+len(cands)-i <= best {
			return
		}
		c := cands[i]
		add(ups[c.sv], c.s, c.d)
		add(downs[c.dv], c.s, c.d)
		if ok(ups[c.sv]) && ok(downs[c.dv]) {
			rec2(i+1, cur+1)
		}
		del(ups[c.sv], c.s, c.d)
		del(downs[c.dv], c.s, c.d)
		rec2(i+1, cur)
	}
	rec2(0, 0)
	return best
}
