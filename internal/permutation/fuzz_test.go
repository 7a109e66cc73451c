package permutation

import (
	"math/rand"
	"testing"
)

// FuzzParse checks that the pattern parser — which the coordinator runs on
// untrusted worker witnesses — never panics, never accepts an invalid
// permutation, and round-trips every non-empty pattern it accepts through
// String. The empty pattern is left out: String prints it as "(empty)",
// which Parse rejects, and no caller parses that form.
func FuzzParse(f *testing.F) {
	f.Add(8, "0->3 1->2")
	f.Add(4, "0->1,2->3")
	f.Add(2, "")
	f.Add(3, "0->0")
	f.Add(5, "4->0 0->4")
	f.Add(6, "0->1 0->2")
	f.Add(6, "a->b")
	f.Add(1, "0->9")
	f.Fuzz(func(t *testing.T, n int, s string) {
		if n < 1 || n > 64 || len(s) > 256 {
			t.Skip()
		}
		p, err := Parse(n, s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted invalid pattern %q: %v", s, err)
		}
		if p.Size() == 0 {
			return // prints as "(empty)", outside the round-trip property
		}
		q, err := Parse(n, p.String())
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", p.String(), err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip changed the pattern: %q vs %q", p, q)
		}
	})
}

// FuzzCanonicalParity checks the symmetry subsystem's three core
// contracts on fuzzer-chosen geometries and patterns: the canonical form
// is idempotent, it is invariant under conjugation by arbitrary group
// elements (decoded from fuzz bytes), and the enumerated orbit sizes sum
// to hosts! with every representative a fixed point.
func FuzzCanonicalParity(f *testing.F) {
	f.Add(6, 2, int64(1), []byte{0, 1, 2})
	f.Add(9, 3, int64(77), []byte{5, 4, 3, 2, 1})
	f.Add(4, 1, int64(0), []byte{})
	f.Add(8, 4, int64(9), []byte{1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, hosts, blockSize int, seed int64, gbytes []byte) {
		if hosts < 1 || hosts > 8 || blockSize < 1 || SymFeasible(hosts, blockSize) != nil {
			t.Skip()
		}
		if hosts/blockSize > 6 {
			t.Skip() // keep the per-input alphabet minimization sub-millisecond
		}
		s, err := NewBlockSymmetry(hosts, blockSize)
		if err != nil {
			t.Fatalf("feasible geometry rejected: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		p := Random(rng, hosts)
		cp, err := s.Canonical(p)
		if err != nil {
			t.Fatalf("Canonical(%s): %v", p, err)
		}
		if cc, _ := s.Canonical(cp); !cc.Equal(cp) {
			t.Fatalf("canonical form not idempotent: %s -> %s -> %s", p, cp, cc)
		}
		// Decode a group element from the fuzz bytes: a block permutation
		// and per-block host relabelings, each built from byte-driven
		// transposition chains so any byte string is a valid element.
		r := hosts / blockSize
		sigma := Identity(r)
		pis := make([]*Permutation, r)
		for i := range pis {
			pis[i] = Identity(blockSize)
		}
		for i, b := range gbytes {
			if i%2 == 0 && r > 1 {
				a, c := int(b)%r, int(b>>4)%r
				sigma.dst[a], sigma.dst[c] = sigma.dst[c], sigma.dst[a]
			} else if blockSize > 1 {
				pi := pis[int(b)%r]
				a, c := int(b>>2)%blockSize, int(b>>5)%blockSize
				pi.dst[a], pi.dst[c] = pi.dst[c], pi.dst[a]
			}
		}
		g := New(hosts)
		for beta := 0; beta < r; beta++ {
			for i := 0; i < blockSize; i++ {
				g.dst[beta*blockSize+i] = sigma.dst[beta]*blockSize + pis[beta].dst[i]
			}
		}
		q := New(hosts)
		for src := 0; src < hosts; src++ {
			q.dst[g.dst[src]] = g.dst[p.dst[src]]
		}
		cq, err := s.Canonical(q)
		if err != nil {
			t.Fatalf("Canonical(conjugate): %v", err)
		}
		if !cq.Equal(cp) {
			t.Fatalf("canonical form not orbit-invariant: p=%s g=%s: %s vs %s", p, g, cq, cp)
		}
		// Orbit sizes partition hosts! (kept cheap: hosts ≤ 8 here).
		sum := 0
		s.Orbits(func(rep *Permutation, orbit int) bool {
			sum += orbit
			if c, _ := s.Canonical(rep); !c.Equal(rep) {
				t.Fatalf("representative %s not canonical", rep)
			}
			return true
		})
		if want := CountFull(hosts); sum != want {
			t.Fatalf("orbit sizes sum to %d, want %d", sum, want)
		}
	})
}

// FuzzGenerators checks the structured generators always yield valid
// patterns for any in-range parameters.
func FuzzGenerators(f *testing.F) {
	f.Add(3, 4, 2)
	f.Add(1, 1, 0)
	f.Add(4, 6, -3)
	f.Fuzz(func(t *testing.T, n, r, k int) {
		if n < 1 || n > 8 || r < 1 || r > 8 || k < -64 || k > 64 {
			t.Skip()
		}
		for _, p := range []*Permutation{
			Shift(n*r, k),
			SwitchShift(n, r, k),
			LocalRotate(n, r),
			Neighbor(n * r),
		} {
			if err := p.Validate(); err != nil {
				t.Fatalf("generator produced invalid pattern: %v", err)
			}
		}
	})
}
