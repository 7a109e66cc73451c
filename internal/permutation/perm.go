// Package permutation implements permutation communication patterns
// (Definition 1 of the paper) over N endpoints, together with the
// generators the experiments use: seeded random (full and partial)
// permutations, structured patterns (shift, transpose, bit reversal,
// neighbor exchange), exhaustive enumeration for small N, and adversarial
// pattern construction.
//
// A pattern is a set of source-destination (SD) pairs in which every
// endpoint appears at most once as a source and at most once as a
// destination (Property 1). Endpoints are abstract indices 0..N−1; callers
// map them to topology host nodes (for folded-Clos networks the identity
// map) or to input/output terminals (for unidirectional Clos networks).
package permutation

import (
	"fmt"
	"sort"
)

// Unused marks an endpoint that sends (or receives) no traffic in a
// partial permutation.
const Unused = -1

// Pair is one source→destination communication.
type Pair struct {
	Src, Dst int
}

// Permutation is a (possibly partial) permutation communication over N
// endpoints: each endpoint is the source of at most one SD pair and the
// destination of at most one SD pair.
type Permutation struct {
	dst []int // dst[s] = destination of s, or Unused
}

// New returns an empty (no pairs) permutation over n endpoints.
func New(n int) *Permutation {
	if n < 0 {
		panic(fmt.Sprintf("permutation: negative size %d", n))
	}
	d := make([]int, n)
	for i := range d {
		d[i] = Unused
	}
	return &Permutation{dst: d}
}

// FromDsts builds a permutation from a destination vector: dst[s] is the
// destination of source s, or Unused. It returns an error if any value is
// out of range or any destination repeats (violating Property 1).
func FromDsts(dst []int) (*Permutation, error) {
	p := &Permutation{dst: append([]int(nil), dst...)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// FromPairs builds a permutation over n endpoints from explicit SD pairs.
func FromPairs(n int, pairs []Pair) (*Permutation, error) {
	p := New(n)
	for _, pr := range pairs {
		if err := p.Add(pr.Src, pr.Dst); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// N reports the number of endpoints.
func (p *Permutation) N() int { return len(p.dst) }

// Size reports the number of SD pairs.
func (p *Permutation) Size() int {
	c := 0
	for _, d := range p.dst {
		if d != Unused {
			c++
		}
	}
	return c
}

// Dst returns the destination of source s, or Unused.
func (p *Permutation) Dst(s int) int {
	if s < 0 || s >= len(p.dst) {
		panic(fmt.Sprintf("permutation: source %d out of range [0,%d)", s, len(p.dst)))
	}
	return p.dst[s]
}

// Add inserts the SD pair (s, d). It returns an error if s already sends,
// d already receives, or either index is out of range. Self-pairs (s == d)
// are legal: a node may send to itself.
func (p *Permutation) Add(s, d int) error {
	if s < 0 || s >= len(p.dst) {
		return fmt.Errorf("permutation: source %d out of range [0,%d)", s, len(p.dst))
	}
	if d < 0 || d >= len(p.dst) {
		return fmt.Errorf("permutation: destination %d out of range [0,%d)", d, len(p.dst))
	}
	if p.dst[s] != Unused {
		return fmt.Errorf("permutation: source %d already used (Property 1)", s)
	}
	for s2, d2 := range p.dst {
		if d2 == d {
			return fmt.Errorf("permutation: destination %d already used by source %d (Property 1)", d, s2)
		}
	}
	p.dst[s] = d
	return nil
}

// Remove deletes the pair originating at s, if any.
func (p *Permutation) Remove(s int) {
	if s >= 0 && s < len(p.dst) {
		p.dst[s] = Unused
	}
}

// Pairs returns the SD pairs ordered by source index.
func (p *Permutation) Pairs() []Pair {
	return p.AppendPairs(make([]Pair, 0, len(p.dst)))
}

// AppendPairs appends the SD pairs, ordered by source index, to dst.
func (p *Permutation) AppendPairs(dst []Pair) []Pair {
	for s, d := range p.dst {
		if d != Unused {
			dst = append(dst, Pair{Src: s, Dst: d})
		}
	}
	return dst
}

// Clone returns an independent copy.
func (p *Permutation) Clone() *Permutation {
	return &Permutation{dst: append([]int(nil), p.dst...)}
}

// Validate checks Definition 1: destinations in range and pairwise
// distinct. (Sources are distinct by construction.)
func (p *Permutation) Validate() error {
	seen := make(map[int]int, len(p.dst))
	for s, d := range p.dst {
		if d == Unused {
			continue
		}
		if d < 0 || d >= len(p.dst) {
			return fmt.Errorf("permutation: destination %d of source %d out of range", d, s)
		}
		if prev, dup := seen[d]; dup {
			return fmt.Errorf("permutation: destination %d used by both %d and %d", d, prev, s)
		}
		seen[d] = s
	}
	return nil
}

// String renders the pattern as "0->3 1->2 ..." for diagnostics.
func (p *Permutation) String() string {
	pairs := p.Pairs()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Src < pairs[j].Src })
	s := ""
	for i, pr := range pairs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d->%d", pr.Src, pr.Dst)
	}
	if s == "" {
		s = "(empty)"
	}
	return s
}
