package permutation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Symmetry reduction for folded-Clos exhaustive sweeps.
//
// A folded-Clos fabric with r bottom switches of n hosts each has a large
// automorphism group: the hosts of one bottom switch are interchangeable,
// whole bottom switches are interchangeable, and the top switches are
// interchangeable. The first two act on hosts as the wreath product
// W = S_b ≀ S_r (b hosts per block, r blocks, |W| = r!·(b!)^r); top-switch
// permutations act on links only, so host patterns never see them — they
// are absorbed by the link relabeling the analysis layer checks for.
//
// W acts on full permutation patterns by conjugation, p ↦ g∘p∘g⁻¹
// (relabel both endpoints of every SD pair the same way — relabeling
// sources and destinations independently is NOT a symmetry: a fixed point
// s→s routes no links, so it must stay a fixed point). Two patterns in one
// orbit produce identical link-load multisets under any routing that is
// equivariant under W, so an exhaustive sweep only needs one
// representative per orbit, scaling its verdict by the orbit size.
//
// The orbit of a pattern is characterized exactly by its cycle structure
// projected to blocks: decompose p into cycles (fixed points are 1-cycles),
// write each cycle as the sequence of block labels it visits — a necklace,
// i.e. a string up to rotation — and take the multiset of necklaces up to
// a global relabeling ρ ∈ S_r of the block alphabet. Two patterns are
// conjugate under W iff these invariants match: per-block relabelings can
// realign hosts within every block freely (each block's hosts are
// distinguishable only by which necklace slots they occupy), and block
// permutations realize exactly the alphabet relabelings.

// Limits for the symmetry machinery. maxSymHosts keeps every factorial and
// orbit size inside an int; maxSymBlocks bounds the r! block-alphabet
// relabelings the canonicality filter walks for every candidate multiset;
// maxSymWork bounds the enumeration itself — the number of necklace
// multisets grows like hosts!/(blockSize!)^blocks, the index of the
// per-block relabeling subgroup.
//
// Cost of the filter. A relabeling acts on a multiset necklace by
// necklace, so the filter works on necklace indices: NewBlockSymmetry
// tabulates, for each of the r(r−1)/2 letter transpositions, where every
// necklace goes, and Heap's algorithm reaches all r! relabelings one
// transposition at a time. A candidate then costs one table lookup per
// necklace, a short insertion sort and an integer-slice comparison per
// relabeling, instead of re-rotating and re-sorting strings. Rows are
// |necklaces| int32s each: at most 6 × 104,158 (12 hosts in blocks of 3,
// about 2.5 MB) over every feasible geometry, where one row per relabeling
// would take r! rows (48 MB for 7 hosts in blocks of 1).
const (
	maxSymHosts  = 20
	maxSymBlocks = 7
	maxSymWork   = 1 << 22
)

// SymFeasible reports whether symmetry-reduced enumeration applies to a
// fabric with the given host count and hosts-per-bottom-switch block size:
// nil when feasible, otherwise an error naming the violated bound. The
// bounds keep the reduced enumeration strictly cheaper than the sweeps it
// replaces while covering every practically enumerable configuration
// (e.g. 16 hosts as 2 blocks of 8: 16! ≈ 2·10¹³ patterns collapse to a
// few thousand representatives).
func SymFeasible(hosts, blockSize int) error {
	if hosts <= 0 {
		return fmt.Errorf("permutation: symmetry needs hosts > 0, got %d", hosts)
	}
	if blockSize <= 0 {
		return fmt.Errorf("permutation: symmetry needs block size > 0, got %d", blockSize)
	}
	if hosts > maxSymHosts {
		return fmt.Errorf("permutation: %d hosts exceeds the symmetry limit %d", hosts, maxSymHosts)
	}
	if hosts%blockSize != 0 {
		return fmt.Errorf("permutation: block size %d does not divide %d hosts", blockSize, hosts)
	}
	r := hosts / blockSize
	if r > maxSymBlocks {
		return fmt.Errorf("permutation: %d blocks exceeds the symmetry limit %d", r, maxSymBlocks)
	}
	if work := CountFull(hosts) / ipow(CountFull(blockSize), r); work > maxSymWork {
		return fmt.Errorf("permutation: ~%d equivalence classes exceeds the symmetry budget %d", work, maxSymWork)
	}
	return nil
}

// BlockSymmetry is the host-relabeling automorphism group S_b ≀ S_r of a
// fabric whose hosts 0..hosts−1 partition into blocks of blockSize
// consecutive hosts (host h lives in block h/blockSize — the layout every
// folded-Clos topology in this repository uses). It provides the canonical
// form of a pattern under conjugation, the orbit enumerator behind
// symmetry-reduced sweeps, and the group generators the analysis layer
// needs to certify that a routing respects the symmetry.
type BlockSymmetry struct {
	hosts     int
	blockSize int
	blocks    int
	// necklaces holds every block-label sequence that can arise from a
	// cycle — canonical (lexicographically minimal) rotations with no
	// letter used more than blockSize times — sorted by (length, lex).
	// This order puts the single-letter necklace of block β at index β,
	// which the enumerator's completability prune relies on.
	necklaces  []string
	neckCounts []uint8 // neckCounts[i*blocks+β] = uses of block β in necklaces[i]
	lenStart   []int   // lenStart[L] = first index with length ≥ L
	rotSym     []uint8 // rotSym[i] = rotations fixing necklaces[i]
	// swapped[t][i] is the index of necklace i's canonical rotation once
	// the two letters of transposition t are exchanged; t numbers the pairs
	// u < v in lexicographic order. Only transpositions are tabulated: a
	// row per relabeling would cost r! rows (see the cost note above).
	swapped [][]int32
	// steps[k] is the transposition (ρ_k(a) ρ_k(b)) that takes relabeling
	// ρ_k to ρ_{k+1} = ρ_k∘(a b) in EnumerateFull order, where Heap's
	// algorithm swaps positions a and b; relabeling by ρ_{k+1} is
	// relabeling by ρ_k and then exchanging those two letters.
	steps []uint8
}

// symCache memoizes BlockSymmetry per geometry: the struct is immutable
// after construction, the necklace table is the expensive part of setup,
// and sweeps rebuild the group for the same few (hosts, blockSize) pairs
// over and over. Bounded by the SymFeasible limits (hosts ≤ 20).
var symCache sync.Map // [2]int → *BlockSymmetry

// NewBlockSymmetry validates feasibility (SymFeasible) and precomputes the
// necklace alphabet for the given geometry.
func NewBlockSymmetry(hosts, blockSize int) (*BlockSymmetry, error) {
	if err := SymFeasible(hosts, blockSize); err != nil {
		return nil, err
	}
	key := [2]int{hosts, blockSize}
	if v, ok := symCache.Load(key); ok {
		return v.(*BlockSymmetry), nil
	}
	s := &BlockSymmetry{hosts: hosts, blockSize: blockSize, blocks: hosts / blockSize}
	s.necklaces = buildNecklaces(s.blocks, s.blockSize)
	// One flat table: a row per necklace would be a heap object each,
	// about half a megabyte at 12 hosts in blocks of 4.
	s.neckCounts = make([]uint8, len(s.necklaces)*s.blocks)
	for i, n := range s.necklaces {
		for k := 0; k < len(n); k++ {
			s.neckCounts[i*s.blocks+int(n[k])]++
		}
	}
	s.lenStart = make([]int, hosts+2)
	idx := 0
	for l := 0; l <= hosts+1; l++ {
		for idx < len(s.necklaces) && len(s.necklaces[idx]) < l {
			idx++
		}
		s.lenStart[l] = idx
	}
	s.rotSym = make([]uint8, len(s.necklaces))
	for i, n := range s.necklaces {
		s.rotSym[i] = uint8(rotationSymmetry(n))
	}
	s.buildTranspositions()
	symCache.Store(key, s)
	return s, nil
}

// buildTranspositions fills swapped and steps.
func (s *BlockSymmetry) buildTranspositions() {
	r := s.blocks
	// Pack each necklace into 3 bits a letter, first letter most
	// significant: r ≤ maxSymBlocks = 7 letters, at most maxSymHosts = 20 of
	// them, fit one uint64, and within one length integer order is lex
	// order, so each length's range lenStart[L]..lenStart[L+1] of keys is
	// sorted and a rotation is a shift.
	keys := make([]uint64, len(s.necklaces))
	for i, n := range s.necklaces {
		for k := 0; k < len(n); k++ {
			keys[i] = keys[i]<<3 | uint64(n[k])
		}
	}
	pair := make([]uint8, r*r) // pair[u*r+v] = transposition number of {u, v}
	for u := 0; u < r; u++ {
		for v := u + 1; v < r; v++ {
			t := uint8(len(s.swapped))
			pair[u*r+v], pair[v*r+u] = t, t
			row := make([]int32, len(s.necklaces))
			for i := range row {
				row[i] = -1
			}
			for i, n := range s.necklaces {
				if row[i] >= 0 {
					continue // a swap is an involution: filled from its partner
				}
				if cnt := s.neckCounts[i*r : (i+1)*r]; cnt[u] == 0 && cnt[v] == 0 {
					row[i] = int32(i)
					continue
				}
				var key uint64
				for k := 0; k < len(n); k++ {
					c := uint64(n[k])
					switch int(c) {
					case u:
						c = uint64(v)
					case v:
						c = uint64(u)
					}
					key = key<<3 | c
				}
				width := 3 * uint(len(n))
				best := key
				for sh := uint(3); sh < width; sh += 3 {
					if rot := (key<<sh | key>>(width-sh)) & (1<<width - 1); rot < best {
						best = rot
					}
				}
				lo, hi := s.lenStart[len(n)], s.lenStart[len(n)+1]
				j, _ := slices.BinarySearch(keys[lo:hi], best)
				row[i], row[lo+j] = int32(lo+j), int32(i)
			}
			s.swapped = append(s.swapped, row)
		}
	}
	s.steps = make([]uint8, 0, CountFull(r)-1)
	EnumerateFullSwaps(r, func(rho *Permutation, a, b int) bool {
		if a >= 0 { // rho already holds ρ_{k+1}: the letters moved are its a and b images
			s.steps = append(s.steps, pair[rho.dst[a]*r+rho.dst[b]])
		}
		return true
	})
}

// GroupOrder returns |S_b ≀ S_r| = r!·(b!)^r, the factor by which the
// group divides the pattern space (orbit sizes divide this times nothing —
// they divide hosts! and average hosts!/#orbits).
func (s *BlockSymmetry) GroupOrder() int {
	return CountFull(s.blocks) * ipow(CountFull(s.blockSize), s.blocks)
}

// NecklaceCount returns the size of the necklace alphabet. Orbit shards
// (Shards, OrbitsRange) are contiguous ranges of top-level necklace
// indices in [0, NecklaceCount()).
func (s *BlockSymmetry) NecklaceCount() int { return len(s.necklaces) }

// Generators returns host permutations generating the group: the adjacent
// transpositions within each block (r·(b−1) of them) and the adjacent
// whole-block swaps (r−1). A routing equivariant under every generator is
// equivariant under the whole group, so this is the certificate set the
// analysis layer checks before trusting a symmetry-reduced sweep.
func (s *BlockSymmetry) Generators() []*Permutation {
	gens := make([]*Permutation, 0, s.blocks*(s.blockSize-1)+s.blocks-1)
	for beta := 0; beta < s.blocks; beta++ {
		for i := 0; i+1 < s.blockSize; i++ {
			g := Identity(s.hosts)
			a, b := beta*s.blockSize+i, beta*s.blockSize+i+1
			g.dst[a], g.dst[b] = b, a
			gens = append(gens, g)
		}
	}
	for beta := 0; beta+1 < s.blocks; beta++ {
		g := Identity(s.hosts)
		for i := 0; i < s.blockSize; i++ {
			a, b := beta*s.blockSize+i, (beta+1)*s.blockSize+i
			g.dst[a], g.dst[b] = b, a
		}
		gens = append(gens, g)
	}
	return gens
}

// OrbitsRange is Orbits restricted to orbits whose largest necklace index
// falls in [lo, hi) — one contiguous shard of the enumeration. The ranges
// of a partition of [0, NecklaceCount()) yield pairwise-disjoint orbit
// sets whose concatenation in ascending range order equals Orbits' output
// exactly, which is what lets a distributed sweep shard representatives
// and still merge a byte-identical result.
func (s *BlockSymmetry) OrbitsRange(lo, hi int, yield func(rep *Permutation, orbitSize int) bool) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.necklaces) {
		hi = len(s.necklaces)
	}
	rem := make([]int, s.blocks)
	for i := range rem {
		rem[i] = s.blockSize
	}
	remTotal := s.hosts
	chosen := make([]int, 0, s.hosts)
	sc := newAlphaScratch(s)
	abort := false

	emit := func() {
		// chosen is non-increasing by index, so reversing it gives the
		// multiset in ascending index order.
		idx := sc.idx[:0]
		for k := len(chosen) - 1; k >= 0; k-- {
			idx = append(idx, int32(chosen[k]))
		}
		sc.idx = idx
		stab, canonical := s.canonicalStab(idx, sc)
		if !canonical {
			return // another alphabet labeling of this orbit is the representative
		}
		if !yield(s.rebuildInto(idx, sc), s.orbitSize(idx, stab)) {
			abort = true
		}
	}

	// DFS over multisets of necklaces chosen in non-increasing index order
	// with per-block budgets rem. The prune keeps the walk dead-end free:
	// a state is completable iff every block with remaining budget still
	// has its single-letter necklace (index = block label) under the cap,
	// because any such state finishes via single-letter necklaces in
	// descending label order.
	var step func(i int)
	var rec func(cap int)
	step = func(i int) {
		cnt := s.neckCounts[i*s.blocks : (i+1)*s.blocks]
		for beta, c := range cnt {
			if int(c) > rem[beta] {
				return
			}
		}
		for beta := i + 1; beta < s.blocks; beta++ {
			if rem[beta] > int(cnt[beta]) {
				return // block beta's singles would exceed the cap
			}
		}
		for beta, c := range cnt {
			rem[beta] -= int(c)
		}
		remTotal -= len(s.necklaces[i])
		chosen = append(chosen, i)
		if remTotal == 0 {
			emit()
		} else {
			rec(i)
		}
		chosen = chosen[:len(chosen)-1]
		remTotal += len(s.necklaces[i])
		for beta, c := range cnt {
			rem[beta] += int(c)
		}
	}
	rec = func(cap int) {
		// Necklaces are length-sorted, so indices with length ≤ remTotal
		// form the prefix [0, lenStart[remTotal+1]).
		max := s.lenStart[remTotal+1] - 1
		if cap < max {
			max = cap
		}
		for i := 0; i <= max && !abort; i++ {
			step(i)
		}
	}
	for i := lo; i < hi && !abort; i++ {
		if len(s.necklaces[i]) <= s.hosts {
			step(i)
		}
	}
	return !abort
}

// Shards partitions [0, NecklaceCount()) into at least minShards
// contiguous top-level index ranges when possible, for OrbitsRange. Work
// is concentrated in low-index (short-necklace) ranges, so the plan
// oversplits — up to 8× minShards ranges — and leaves smoothing to the
// dispatcher, mirroring PrefixShards' deepening.
func (s *BlockSymmetry) Shards(minShards int) [][2]int {
	n := len(s.necklaces)
	if minShards < 1 {
		minShards = 1
	}
	want := minShards * 8
	if want > n {
		want = n
	}
	shards := make([][2]int, 0, want)
	lo := 0
	for k := 0; k < want; k++ {
		hi := lo + (n-lo)/(want-k)
		if hi <= lo {
			hi = lo + 1
		}
		shards = append(shards, [2]int{lo, hi})
		lo = hi
	}
	return shards
}

// alphaScratch holds the reusable buffers of the canonicality filter on
// the orbit enumeration's hot path. One scratch per OrbitsRange call keeps
// the filter allocation-free and the enumeration goroutine-safe.
type alphaScratch struct {
	idx []int32 // the candidate multiset, ascending necklace indices
	cur []int32 // idx under the current relabeling, ascending
	// Representative-construction scratch: the one Permutation the
	// enumeration yields (reused between orbits) and rebuildInto's
	// per-block slot counters and cycle buffer.
	rep     *Permutation
	next    []int
	hostSeq []int
}

func newAlphaScratch(s *BlockSymmetry) *alphaScratch {
	return &alphaScratch{
		idx:     make([]int32, 0, s.hosts),
		cur:     make([]int32, 0, s.hosts),
		rep:     New(s.hosts),
		next:    make([]int, s.blocks),
		hostSeq: make([]int, 0, s.hosts),
	}
}

// canonicalStab reports whether the multiset idx (ascending necklace
// indices) is minimal over every relabeling of the block alphabet,
// early-exiting on the first smaller relabeling, and, when it is, the
// stabilizer size |{ρ : ρ·idx = idx}|. Relabeling preserves necklace
// lengths and index order is (length, lex), so comparing sorted index
// lists orders multisets exactly as comparing their length-prefixed
// string encodings would.
func (s *BlockSymmetry) canonicalStab(idx []int32, sc *alphaScratch) (stab int, ok bool) {
	cur := append(sc.cur[:0], idx...)
	sc.cur = cur
	stab = 1 // the identity, which EnumerateFull presents first
	for _, t := range s.steps {
		row := s.swapped[t]
		for k, i := range cur {
			cur[k] = row[i]
		}
		// Insertion sort: multisets are tiny (≤ hosts entries) and one
		// transposition leaves most of the order intact.
		for k := 1; k < len(cur); k++ {
			for j := k; j > 0 && cur[j] < cur[j-1]; j-- {
				cur[j], cur[j-1] = cur[j-1], cur[j]
			}
		}
		switch slices.Compare(cur, idx) {
		case -1:
			return 0, false
		case 0:
			stab++
		}
	}
	return stab, true
}

// orbitSize computes the orbit size of the pattern class with the given
// necklace multiset (ascending indices) and alphabet-stabilizer size:
//
//	(r!/stab) · (b!)^r / (∏_cycles sym_c · ∏_types mult_t!)
//
// The second factor counts the patterns sharing this exact labeled
// multiset: hosts distribute into necklace slots block-by-block ((b!)^r
// ways), double-counted once per rotation fixing a cycle's label sequence
// (sym_c) and once per permutation of identical necklaces (mult_t!). The
// first factor counts the distinct alphabet relabelings of the multiset.
// Both divisions are exact; sizes sum to hosts! over all orbits.
func (s *BlockSymmetry) orbitSize(idx []int32, stab int) int {
	num := ipow(CountFull(s.blockSize), s.blocks)
	den := 1
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && idx[j] == idx[i] {
			j++
		}
		den *= CountFull(j - i) // mult!
		den *= ipow(int(s.rotSym[idx[i]]), j-i)
		i = j
	}
	if num%den != 0 {
		panic("permutation: orbit size division not exact")
	}
	relabelings := CountFull(s.blocks) / stab
	return relabelings * (num / den)
}

// rebuildInto constructs the representative of a canonical multiset
// (ascending necklace indices) in sc's reused buffer: walk the necklaces in
// order, assign each slot the lowest unused host of its block, and close
// each cycle. A full multiset covers every host, so every dst entry is
// overwritten — no reset needed between calls.
func (s *BlockSymmetry) rebuildInto(idx []int32, sc *alphaScratch) *Permutation {
	p := sc.rep
	for i := range sc.next {
		sc.next[i] = 0
	}
	for _, i := range idx {
		neck := s.necklaces[i]
		hostSeq := sc.hostSeq[:0]
		for i := 0; i < len(neck); i++ {
			beta := int(neck[i])
			hostSeq = append(hostSeq, beta*s.blockSize+sc.next[beta])
			sc.next[beta]++
		}
		sc.hostSeq = hostSeq
		for i, h := range hostSeq {
			p.dst[h] = hostSeq[(i+1)%len(hostSeq)]
		}
	}
	return p
}

// buildNecklaces enumerates every canonical-rotation block-label sequence
// over r letters with per-letter multiplicity ≤ b, sorted by (length, lex).
func buildNecklaces(r, b int) []string {
	// The necklaces are collected in one arena and then sliced out of one
	// string, so the table is two heap objects, not one per necklace.
	var arena []byte
	var ends []int
	seq := make([]byte, 0, r*b)
	cnt := make([]int, r)
	var rec func()
	rec = func() {
		if len(seq) > 0 && isMinRotation(seq) {
			arena = append(arena, seq...)
			ends = append(ends, len(arena))
		}
		if len(seq) == cap(seq) {
			return
		}
		for c := 0; c < r; c++ {
			if cnt[c] == b {
				continue
			}
			seq = append(seq, byte(c))
			cnt[c]++
			rec()
			seq = seq[:len(seq)-1]
			cnt[c]--
		}
	}
	rec()
	all := string(arena)
	out := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		out[i] = all[start:end]
		start = end
	}
	sortNecklaces(out)
	return out
}

// isMinRotation reports whether seq is ≤ every rotation of itself.
func isMinRotation(seq []byte) bool {
	n := len(seq)
	for s := 1; s < n; s++ {
		for k := 0; k < n; k++ {
			a, b := seq[(s+k)%n], seq[k]
			if a < b {
				return false
			}
			if a > b {
				break
			}
		}
	}
	return true
}

// rotationSymmetry returns the number of rotations fixing seq
// (len/period).
func rotationSymmetry(seq string) int {
	n := len(seq)
	for p := 1; p < n; p++ {
		if n%p != 0 {
			continue
		}
		ok := true
		for k := p; k < n; k++ {
			if seq[k] != seq[k-p] {
				ok = false
				break
			}
		}
		if ok {
			return n / p
		}
	}
	return 1
}

// sortNecklaces orders a multiset by (length, lex) — the total order every
// encoding and index in this file assumes.
func sortNecklaces(necks []string) {
	sort.Slice(necks, func(i, j int) bool {
		if len(necks[i]) != len(necks[j]) {
			return len(necks[i]) < len(necks[j])
		}
		return necks[i] < necks[j]
	})
}

// ipow computes base^exp by repeated multiplication (small exact inputs
// only; overflow is excluded by SymFeasible's bounds).
func ipow(base, exp int) int {
	v := 1
	for i := 0; i < exp; i++ {
		v *= base
	}
	return v
}
