package permutation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// randomGroupElement draws a uniform element of S_b ≀ S_r as a host
// permutation: a block permutation composed with independent per-block
// host relabelings.
func randomGroupElement(rng *rand.Rand, hosts, blockSize int) *Permutation {
	r := hosts / blockSize
	sigma := rng.Perm(r)
	g := New(hosts)
	for beta := 0; beta < r; beta++ {
		pi := rng.Perm(blockSize)
		for i := 0; i < blockSize; i++ {
			g.dst[beta*blockSize+i] = sigma[beta]*blockSize + pi[i]
		}
	}
	return g
}

// conjugate returns g∘p∘g⁻¹ — the group action the symmetry machinery
// reduces over.
func conjugate(p, g *Permutation) *Permutation {
	q := New(p.N())
	for s := 0; s < p.N(); s++ {
		q.dst[g.Dst(s)] = g.Dst(p.Dst(s))
	}
	return q
}

var symGeometries = []struct{ hosts, blockSize int }{
	{1, 1}, {2, 1}, {2, 2}, {4, 2}, {3, 3}, {6, 2}, {6, 3}, {6, 1},
	{8, 2}, {8, 4}, {9, 3}, {10, 5}, {12, 4},
}

// TestOrbitSizesSumToFactorial is the master counting check: one
// representative per orbit, orbit sizes summing to hosts!, every
// representative a fixed point of the canonical form, all distinct.
func TestOrbitSizesSumToFactorial(t *testing.T) {
	for _, g := range symGeometries {
		s, err := NewBlockSymmetry(g.hosts, g.blockSize)
		if err != nil {
			t.Fatalf("NewBlockSymmetry(%d,%d): %v", g.hosts, g.blockSize, err)
		}
		sum, orbits := 0, 0
		seen := make(map[string]bool)
		s.Orbits(func(rep *Permutation, orbit int) bool {
			orbits++
			sum += orbit
			if err := rep.Validate(); err != nil || !rep.Full() {
				t.Fatalf("(%d,%d) representative %s invalid: %v", g.hosts, g.blockSize, rep, err)
			}
			if seen[rep.String()] {
				t.Fatalf("(%d,%d) representative %s emitted twice", g.hosts, g.blockSize, rep)
			}
			seen[rep.String()] = true
			c, err := s.Canonical(rep)
			if err != nil {
				t.Fatalf("(%d,%d) Canonical(%s): %v", g.hosts, g.blockSize, rep, err)
			}
			if !c.Equal(rep) {
				t.Fatalf("(%d,%d) representative %s is not canonical (got %s)", g.hosts, g.blockSize, rep, c)
			}
			if os, err := s.OrbitSize(rep); err != nil || os != orbit {
				t.Fatalf("(%d,%d) OrbitSize(%s) = %d, %v; enumerator said %d", g.hosts, g.blockSize, rep, os, err, orbit)
			}
			return true
		})
		if want := CountFull(g.hosts); sum != want {
			t.Fatalf("(%d,%d): orbit sizes sum to %d over %d orbits, want %d", g.hosts, g.blockSize, sum, orbits, want)
		}
	}
}

// TestCanonicalInvariantUnderGroup checks the canonical form and orbit
// size are constant on orbits: conjugating by random group elements never
// changes them.
func TestCanonicalInvariantUnderGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, g := range symGeometries {
		s, err := NewBlockSymmetry(g.hosts, g.blockSize)
		if err != nil {
			t.Fatalf("NewBlockSymmetry(%d,%d): %v", g.hosts, g.blockSize, err)
		}
		for trial := 0; trial < 30; trial++ {
			p := Random(rng, g.hosts)
			cp, err := s.Canonical(p)
			if err != nil {
				t.Fatalf("Canonical: %v", err)
			}
			op, err := s.OrbitSize(p)
			if err != nil {
				t.Fatalf("OrbitSize: %v", err)
			}
			// Idempotence.
			if cc, _ := s.Canonical(cp); !cc.Equal(cp) {
				t.Fatalf("(%d,%d) Canonical not idempotent on %s: %s then %s", g.hosts, g.blockSize, p, cp, cc)
			}
			for k := 0; k < 5; k++ {
				elem := randomGroupElement(rng, g.hosts, g.blockSize)
				q := conjugate(p, elem)
				cq, err := s.Canonical(q)
				if err != nil {
					t.Fatalf("Canonical(conjugate): %v", err)
				}
				if !cq.Equal(cp) {
					t.Fatalf("(%d,%d) canonical form not invariant: p=%s g=%s gave %s vs %s", g.hosts, g.blockSize, p, elem, cq, cp)
				}
				if oq, _ := s.OrbitSize(q); oq != op {
					t.Fatalf("(%d,%d) orbit size not invariant: %d vs %d", g.hosts, g.blockSize, oq, op)
				}
			}
		}
	}
}

// TestCanonicalStabMatchesOracle checks the enumerator's index filter
// against the string oracle on every feasible geometry up to 12 hosts,
// r = 1…7 blocks: for random patterns, the identity (stabilized by all r!
// relabelings) and each one's oracle minimum, canonicalStab must agree
// with minimizeAlphabet on whether the multiset is canonical and, when it
// is, on the stabilizer size. With r ≥ 3 this exercises the mapping from
// Heap's position swaps to letter transpositions.
func TestCanonicalStabMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for hosts := 1; hosts <= 12; hosts++ {
		for b := 1; b <= hosts; b++ {
			if SymFeasible(hosts, b) != nil {
				continue
			}
			s, err := NewBlockSymmetry(hosts, b)
			if err != nil {
				t.Fatal(err)
			}
			sc := newAlphaScratch(s)
			patterns := []*Permutation{Identity(hosts)}
			for trial := 0; trial < 12; trial++ {
				patterns = append(patterns, Random(rng, hosts))
			}
			for _, p := range patterns {
				necks, err := s.patternNecklaces(p)
				if err != nil {
					t.Fatal(err)
				}
				canon, stab := s.minimizeAlphabet(necks)
				want := encodeNecklaces(canon) == encodeNecklaces(necks)
				if got, ok := s.canonicalStab(s.indexes(necks), sc); ok != want || (ok && got != stab) {
					t.Fatalf("(%d,%d) %s: filter says canonical=%v stab=%d, oracle canonical=%v stab=%d", hosts, b, p, ok, got, want, stab)
				}
				if got, ok := s.canonicalStab(s.indexes(canon), sc); !ok || got != stab {
					t.Fatalf("(%d,%d) oracle minimum of %s: filter says canonical=%v stab=%d, want true, %d", hosts, b, p, ok, got, stab)
				}
			}
		}
	}
}

// TestOrbitsRangeSharding checks that shard ranges partition the orbit
// stream: concatenating OrbitsRange over any partition of the necklace
// index space reproduces Orbits exactly, in order.
func TestOrbitsRangeSharding(t *testing.T) {
	type orb struct {
		rep  string
		size int
	}
	for _, g := range []struct{ hosts, blockSize int }{{6, 2}, {9, 3}, {6, 1}, {8, 4}} {
		s, err := NewBlockSymmetry(g.hosts, g.blockSize)
		if err != nil {
			t.Fatal(err)
		}
		var full []orb
		s.Orbits(func(rep *Permutation, size int) bool {
			full = append(full, orb{rep.String(), size})
			return true
		})
		for _, minShards := range []int{1, 2, 3, 7} {
			shards := s.Shards(minShards)
			if len(shards) < minShards && len(shards) != s.NecklaceCount() {
				t.Fatalf("(%d,%d) Shards(%d) returned %d shards with %d necklaces", g.hosts, g.blockSize, minShards, len(shards), s.NecklaceCount())
			}
			lo := 0
			var merged []orb
			for _, sh := range shards {
				if sh[0] != lo {
					t.Fatalf("(%d,%d) shard %v does not continue at %d", g.hosts, g.blockSize, sh, lo)
				}
				lo = sh[1]
				s.OrbitsRange(sh[0], sh[1], func(rep *Permutation, size int) bool {
					merged = append(merged, orb{rep.String(), size})
					return true
				})
			}
			if lo != s.NecklaceCount() {
				t.Fatalf("(%d,%d) shards end at %d, want %d", g.hosts, g.blockSize, lo, s.NecklaceCount())
			}
			if len(merged) != len(full) {
				t.Fatalf("(%d,%d) sharded enumeration yielded %d orbits, want %d", g.hosts, g.blockSize, len(merged), len(full))
			}
			for i := range full {
				if merged[i] != full[i] {
					t.Fatalf("(%d,%d) orbit %d differs sharded: %v vs %v", g.hosts, g.blockSize, i, merged[i], full[i])
				}
			}
		}
	}
}

// TestOrbitsEarlyStop checks yield's abort contract.
func TestOrbitsEarlyStop(t *testing.T) {
	s, err := NewBlockSymmetry(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if s.Orbits(func(*Permutation, int) bool {
		count++
		return count < 3
	}) {
		t.Fatal("Orbits reported completion despite early stop")
	}
	if count != 3 {
		t.Fatalf("Orbits called yield %d times after stop at 3", count)
	}
}

// TestGenerators checks the generator set's shape: valid involutions that
// preserve canonical forms (they are group elements, after all).
func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := NewBlockSymmetry(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	gens := s.Generators()
	if want := s.blocks*(s.blockSize-1) + s.blocks - 1; len(gens) != want {
		t.Fatalf("got %d generators, want %d", len(gens), want)
	}
	p := Random(rng, 9)
	cp, _ := s.Canonical(p)
	for _, g := range gens {
		if err := g.Validate(); err != nil || !g.Full() {
			t.Fatalf("generator %s invalid: %v", g, err)
		}
		gg := conjugate(p, g)
		if cg, _ := s.Canonical(gg); !cg.Equal(cp) {
			t.Fatalf("generator %s changed the canonical form", g)
		}
	}
}

// TestSymFeasible pins the feasibility envelope.
func TestSymFeasible(t *testing.T) {
	for _, tc := range []struct {
		hosts, blockSize int
		ok               bool
	}{
		{9, 3, true},
		{12, 3, true},  // the n=12 frontier geometry
		{14, 7, true},  // 2 blocks of 7
		{16, 8, true},  // the n=16 frontier geometry
		{20, 10, true}, // at the host limit
		{8, 1, false},  // 8 blocks > limit 7
		{9, 2, false},  // 2 does not divide 9
		{21, 3, false}, // hosts over the limit
		{16, 4, false}, // 16!/(4!)^4 ≈ 63M classes over budget
		{14, 2, false}, // 14!/(2!)^7 ≈ 681M classes over budget
		{0, 1, false},
		{4, 0, false},
	} {
		err := SymFeasible(tc.hosts, tc.blockSize)
		if (err == nil) != tc.ok {
			t.Errorf("SymFeasible(%d,%d) = %v, want ok=%v", tc.hosts, tc.blockSize, err, tc.ok)
		}
	}
}

// TestCanonicalRejectsPartial: orbits are defined over full patterns only.
func TestCanonicalRejectsPartial(t *testing.T) {
	s, err := NewBlockSymmetry(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Canonical(New(4)); err == nil {
		t.Fatal("Canonical accepted a partial pattern")
	}
	if _, err := s.Canonical(Identity(6)); err == nil {
		t.Fatal("Canonical accepted a wrong-sized pattern")
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// Canonical returns the canonical representative of p's orbit under the
// group: conjugate patterns map to the same representative, and the
// representative maps to itself. Only full permutations have orbits here
// (exhaustive sweeps enumerate full patterns); partial patterns return an
// error.
func (s *BlockSymmetry) Canonical(p *Permutation) (*Permutation, error) {
	necks, err := s.patternNecklaces(p)
	if err != nil {
		return nil, err
	}
	canon, _ := s.minimizeAlphabet(necks)
	return s.rebuildInto(s.indexes(canon), newAlphaScratch(s)), nil
}

// OrbitSize returns the number of distinct patterns conjugate to p
// (including p itself). Orbit sizes over all orbits sum to hosts!.
func (s *BlockSymmetry) OrbitSize(p *Permutation) (int, error) {
	necks, err := s.patternNecklaces(p)
	if err != nil {
		return 0, err
	}
	_, stab := s.minimizeAlphabet(necks)
	return s.orbitSize(s.indexes(necks), stab), nil
}

// Orbits calls yield once per orbit with the canonical representative and
// the orbit size, stopping early if yield returns false and reporting
// whether the enumeration completed. The Permutation passed to yield is
// reused between orbits (Clone to retain), matching EnumerateFull's
// contract. Representatives arrive in a deterministic order: ascending by
// the orbit's largest necklace index, then depth-first within — the order
// OrbitsRange shards.
func (s *BlockSymmetry) Orbits(yield func(rep *Permutation, orbitSize int) bool) bool {
	return s.OrbitsRange(0, len(s.necklaces), yield)
}

// patternNecklaces decomposes a full pattern into its cycle-projection
// necklaces, sorted by (length, lex).
func (s *BlockSymmetry) patternNecklaces(p *Permutation) ([]string, error) {
	if p.N() != s.hosts {
		return nil, fmt.Errorf("permutation: pattern has %d endpoints, symmetry group acts on %d", p.N(), s.hosts)
	}
	if !p.Full() {
		return nil, fmt.Errorf("permutation: symmetry canonical form requires a full permutation, got %d/%d pairs", p.Size(), s.hosts)
	}
	visited := make([]bool, s.hosts)
	necks := make([]string, 0, s.hosts)
	seq := make([]byte, 0, s.hosts)
	for h0 := 0; h0 < s.hosts; h0++ {
		if visited[h0] {
			continue
		}
		seq = seq[:0]
		for h := h0; !visited[h]; h = p.Dst(h) {
			visited[h] = true
			seq = append(seq, byte(h/s.blockSize))
		}
		necks = append(necks, minRotation(seq))
	}
	sortNecklaces(necks)
	return necks, nil
}

// minimizeAlphabet returns the (length, lex)-sorted necklace multiset with
// the minimal encoding over all relabelings ρ ∈ S_r of the block alphabet,
// together with the stabilizer size |{ρ : ρ·necks = minimum}| — which
// equals the stabilizer of necks itself, since the relabelings reaching
// the minimum form one coset of it.
func (s *BlockSymmetry) minimizeAlphabet(necks []string) (canon []string, stab int) {
	canon, stab = necks, 0
	bestEnc := encodeNecklaces(necks)
	rho := make([]byte, s.blocks)
	EnumerateFull(s.blocks, func(g *Permutation) bool {
		for i := range rho {
			rho[i] = byte(g.Dst(i))
		}
		rel := relabelNecklaces(necks, rho)
		enc := encodeNecklaces(rel)
		if enc < bestEnc {
			bestEnc, canon, stab = enc, rel, 1
		} else if enc == bestEnc {
			stab++
		}
		return true
	})
	return canon, stab
}

// indexes maps a (length, lex)-sorted necklace multiset to its ascending
// necklace indices, the form the enumerator's filter works on.
func (s *BlockSymmetry) indexes(necks []string) []int32 {
	idx := make([]int32, len(necks))
	for k, n := range necks {
		idx[k] = int32(sort.Search(len(s.necklaces), func(j int) bool {
			if m := s.necklaces[j]; len(m) != len(n) {
				return len(m) > len(n)
			}
			return s.necklaces[j] >= n
		}))
	}
	return idx
}

// encodeNecklaces flattens a (length, lex)-sorted multiset into one
// comparable string: each necklace length-prefixed, concatenated in order.
func encodeNecklaces(necks []string) string {
	buf := make([]byte, 0, 2*len(necks)+16)
	for _, n := range necks {
		buf = append(buf, byte(len(n)))
		buf = append(buf, n...)
	}
	return string(buf)
}

// relabelNecklaces maps every letter through rho, re-canonicalizes each
// rotation, and re-sorts.
func relabelNecklaces(necks []string, rho []byte) []string {
	out := make([]string, len(necks))
	buf := make([]byte, 0, 32)
	for i, n := range necks {
		buf = buf[:0]
		for k := 0; k < len(n); k++ {
			buf = append(buf, rho[n[k]])
		}
		out[i] = minRotation(buf)
	}
	sortNecklaces(out)
	return out
}

// minRotation returns the lexicographically minimal rotation of seq.
func minRotation(seq []byte) string {
	n := len(seq)
	best := 0
	for s := 1; s < n; s++ {
		for k := 0; k < n; k++ {
			a, b := seq[(s+k)%n], seq[(best+k)%n]
			if a < b {
				best = s
				break
			}
			if a > b {
				break
			}
		}
	}
	rot := make([]byte, n)
	for k := 0; k < n; k++ {
		rot[k] = seq[(best+k)%n]
	}
	return string(rot)
}
