package permutation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAdd(t *testing.T) {
	p := New(4)
	if p.N() != 4 || p.Size() != 0 || p.Full() {
		t.Fatal("empty permutation state wrong")
	}
	if err := p.Add(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(1, 2); err == nil {
		t.Fatal("duplicate destination accepted")
	}
	if err := p.Add(0, 3); err == nil {
		t.Fatal("duplicate source accepted")
	}
	if err := p.Add(4, 0); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if err := p.Add(1, -1); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := p.Add(2, 2); err == nil {
		t.Fatal("reused destination accepted")
	}
	if err := p.Add(1, 1); err != nil {
		t.Fatalf("self-pair rejected: %v", err)
	}
	if p.Size() != 2 {
		t.Fatalf("size = %d, want 2", p.Size())
	}
	if p.Dst(0) != 2 || p.Dst(1) != 1 || p.Dst(3) != Unused {
		t.Fatal("Dst values wrong")
	}
	p.Remove(0)
	if p.Dst(0) != Unused || p.Size() != 1 {
		t.Fatal("Remove failed")
	}
}

func TestFromDstsValidates(t *testing.T) {
	if _, err := FromDsts([]int{1, 0, Unused}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromDsts([]int{1, 1}); err == nil {
		t.Fatal("duplicate destinations accepted")
	}
	if _, err := FromDsts([]int{5}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestFromPairs(t *testing.T) {
	p, err := FromPairs(4, []Pair{{0, 3}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Pairs()
	if len(got) != 2 || got[0] != (Pair{0, 3}) || got[1] != (Pair{2, 1}) {
		t.Fatalf("pairs = %v", got)
	}
	if _, err := FromPairs(2, []Pair{{0, 1}, {1, 1}}); err == nil {
		t.Fatal("invalid pair set accepted")
	}
}

func TestCloneAndEqual(t *testing.T) {
	p := Shift(5, 2)
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q.Remove(0)
	if p.Equal(q) {
		t.Fatal("mutated clone still equal")
	}
	if p.Equal(New(4)) {
		t.Fatal("different sizes equal")
	}
}

func TestString(t *testing.T) {
	p, _ := FromPairs(3, []Pair{{2, 0}, {0, 1}})
	if s := p.String(); s != "0->1 2->0" {
		t.Fatalf("String = %q", s)
	}
	if s := New(2).String(); s != "(empty)" {
		t.Fatalf("empty String = %q", s)
	}
}

func TestIdentityShift(t *testing.T) {
	id := Identity(4)
	if !id.Full() {
		t.Fatal("identity not full")
	}
	for i := 0; i < 4; i++ {
		if id.Dst(i) != i {
			t.Fatal("identity wrong")
		}
	}
	s := Shift(4, 1)
	if s.Dst(3) != 0 || s.Dst(0) != 1 {
		t.Fatal("shift wrong")
	}
	neg := Shift(4, -1)
	if neg.Dst(0) != 3 {
		t.Fatal("negative shift wrong")
	}
	if !Shift(5, 5).Equal(Identity(5)) {
		t.Fatal("full-cycle shift is not identity")
	}
}

func TestRandomIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		p := Random(rng, 17)
		if !p.Full() {
			t.Fatal("random permutation not full")
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, density := range []float64{0, 0.3, 0.7, 1} {
		p := RandomPartial(rng, 20, density)
		if err := p.Validate(); err != nil {
			t.Fatalf("density %v: %v", density, err)
		}
	}
	if RandomPartial(rng, 10, 0).Size() != 0 {
		t.Fatal("density 0 produced pairs")
	}
	if !RandomPartial(rng, 10, 1).Full() {
		t.Fatal("density 1 not full")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad density should panic")
			}
		}()
		RandomPartial(rng, 4, 1.5)
	}()
}

func TestTranspose(t *testing.T) {
	p := Transpose(3, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Full() {
		t.Fatal("transpose not full")
	}
	// (1,2) -> (2,1): 1*4+2=6 -> 2*3+1=7
	if p.Dst(6) != 7 {
		t.Fatalf("transpose Dst(6) = %d, want 7", p.Dst(6))
	}
	// Transposing twice is the identity.
	q := Transpose(4, 3)
	for i := 0; i < 12; i++ {
		if q.Dst(p.Dst(i)) != i {
			t.Fatalf("transpose not involutive at %d", i)
		}
	}
}

func TestBitReversal(t *testing.T) {
	p := BitReversal(8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Dst(1) != 4 || p.Dst(3) != 6 || p.Dst(7) != 7 {
		t.Fatalf("bit reversal wrong: %v %v %v", p.Dst(1), p.Dst(3), p.Dst(7))
	}
	// Involutive.
	for i := 0; i < 8; i++ {
		if p.Dst(p.Dst(i)) != i {
			t.Fatal("bit reversal not involutive")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-power-of-two should panic")
			}
		}()
		BitReversal(6)
	}()
}

func TestNeighborButterfly(t *testing.T) {
	p := Neighbor(6)
	if p.Dst(0) != 1 || p.Dst(1) != 0 || p.Dst(5) != 4 {
		t.Fatal("neighbor wrong")
	}
	odd := Neighbor(5)
	if odd.Dst(4) != 4 {
		t.Fatal("odd neighbor self-pair wrong")
	}
	b := Butterfly(8, 2)
	if b.Dst(1) != 5 || b.Dst(5) != 1 {
		t.Fatal("butterfly wrong")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){func() { Butterfly(6, 0) }, func() { Butterfly(8, 3) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSwitchShiftAndLocalRotate(t *testing.T) {
	n, r := 3, 4
	p := SwitchShift(n, r, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < r; v++ {
		for k := 0; k < n; k++ {
			want := ((v+1)%r)*n + k
			if p.Dst(v*n+k) != want {
				t.Fatalf("switch shift (%d,%d) -> %d, want %d", v, k, p.Dst(v*n+k), want)
			}
		}
	}
	q := LocalRotate(n, r)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if !q.Full() {
		t.Fatal("LocalRotate not full")
	}
	for s := 0; s < n*r; s++ {
		if q.Dst(s)/n == s/n {
			t.Fatal("LocalRotate produced intra-switch pair")
		}
	}
}

func TestGreedyLowSpreadValid(t *testing.T) {
	for _, c := range []struct{ n, r, cc int }{{2, 4, 2}, {3, 9, 2}, {2, 8, 3}, {4, 5, 1}} {
		p := GreedyLowSpread(c.n, c.r, c.cc)
		if err := p.Validate(); err != nil {
			t.Fatalf("GreedyLowSpread(%d,%d,%d): %v", c.n, c.r, c.cc, err)
		}
		if !p.Full() {
			t.Fatalf("GreedyLowSpread(%d,%d,%d) not full", c.n, c.r, c.cc)
		}
	}
}

func TestEnumerateFullCount(t *testing.T) {
	for n := 0; n <= 6; n++ {
		count := 0
		seen := map[string]bool{}
		done := EnumerateFull(n, func(p *Permutation) bool {
			count++
			seen[p.String()] = true
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if !done {
			t.Fatal("enumeration aborted")
		}
		if count != CountFull(n) {
			t.Fatalf("n=%d: count = %d, want %d", n, count, CountFull(n))
		}
		if len(seen) != count {
			t.Fatalf("n=%d: duplicates produced (%d distinct of %d)", n, len(seen), count)
		}
	}
}

func TestEnumerateFullEarlyStop(t *testing.T) {
	count := 0
	done := EnumerateFull(4, func(p *Permutation) bool {
		count++
		return count < 5
	})
	if done || count != 5 {
		t.Fatalf("early stop failed: done=%v count=%d", done, count)
	}
}

func TestEnumerateSubsetsCount(t *testing.T) {
	// Σ_k C(n,k)² k! : n=0→1, 1→2, 2→7, 3→34, 4→209.
	want := []int{1, 2, 7, 34, 209}
	for n := 0; n <= 4; n++ {
		count := 0
		done := EnumerateSubsets(n, func(p *Permutation) bool {
			count++
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if !done || count != want[n] {
			t.Fatalf("n=%d: count = %d, want %d", n, count, want[n])
		}
	}
}

func TestEnumerateSubsetsEarlyStop(t *testing.T) {
	count := 0
	done := EnumerateSubsets(3, func(p *Permutation) bool {
		count++
		return false
	})
	if done || count != 1 {
		t.Fatalf("early stop failed: done=%v count=%d", done, count)
	}
}

func TestCountFullOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	CountFull(30)
}

// Property: Random always yields a valid full permutation — every source
// sends, no destination twice — so it has an inverse.
func TestQuickRandomInverse(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%32) + 1
		rng := rand.New(rand.NewSource(seed))
		p := Random(rng, n)
		return p.Validate() == nil && p.Full()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RandomPartial never violates Property 1 for any density.
func TestQuickRandomPartialValid(t *testing.T) {
	f := func(seed int64, sz uint8, dens uint8) bool {
		n := int(sz%40) + 1
		d := float64(dens%101) / 100
		rng := rand.New(rand.NewSource(seed))
		p := RandomPartial(rng, n, d)
		return p.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SwitchShift with any delta is a valid permutation in which no
// pair stays inside its switch unless delta ≡ 0 (mod r).
func TestQuickSwitchShift(t *testing.T) {
	f := func(nn, rr, delta uint8) bool {
		n := int(nn%4) + 1
		r := int(rr%6) + 1
		d := int(delta % 12)
		p := SwitchShift(n, r, d)
		if p.Validate() != nil || !p.Full() {
			return false
		}
		for s := 0; s < n*r; s++ {
			same := p.Dst(s)/n == s/n
			if d%r == 0 && !same {
				return false
			}
			if d%r != 0 && same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDstPanicsOutOfRange(t *testing.T) {
	p := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Dst(5)
}

func TestEnumerateFullPrefixLocal(t *testing.T) {
	// Shard coverage within the package: shard 1 of n=4 yields 3! = 6
	// patterns, all with Dst(0) == 1.
	count := 0
	ok := EnumerateFullPrefix(4, 1, func(p *Permutation) bool {
		if p.Dst(0) != 1 {
			t.Fatal("wrong shard")
		}
		count++
		return true
	})
	if !ok || count != 6 {
		t.Fatalf("shard produced %d (ok=%v)", count, ok)
	}
}

func TestCrossSwitchFraction(t *testing.T) {
	// SwitchShift: every pair crosses.
	if got := SwitchShift(2, 4, 1).CrossSwitchFraction(2); got != 1 {
		t.Fatalf("switch shift fraction = %v", got)
	}
	// Identity: nothing crosses.
	if got := Identity(8).CrossSwitchFraction(2); got != 0 {
		t.Fatalf("identity fraction = %v", got)
	}
	// Mixed.
	p, _ := FromPairs(4, []Pair{{0, 1}, {2, 0}})
	if got := p.CrossSwitchFraction(2); got != 0.5 {
		t.Fatalf("mixed fraction = %v", got)
	}
	if got := New(4).CrossSwitchFraction(2); got != 0 {
		t.Fatalf("empty fraction = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		Identity(4).CrossSwitchFraction(0)
	}()
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// Equal reports whether two permutations have identical pair sets.
func (p *Permutation) Equal(q *Permutation) bool {
	if len(p.dst) != len(q.dst) {
		return false
	}
	for i := range p.dst {
		if p.dst[i] != q.dst[i] {
			return false
		}
	}
	return true
}

// CrossSwitchFraction reports, for a folded-Clos with n hosts per bottom
// switch, the fraction of pairs whose endpoints sit in different switches
// (the pairs that must cross the top level).
func (p *Permutation) CrossSwitchFraction(n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("permutation: invalid hosts-per-switch %d", n))
	}
	pairs, cross := 0, 0
	for s, d := range p.dst {
		if d == Unused {
			continue
		}
		pairs++
		if s/n != d/n {
			cross++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(cross) / float64(pairs)
}

// Full reports whether every endpoint is both a source and a destination.
func (p *Permutation) Full() bool { return p.Size() == len(p.dst) }

// EnumerateSubsets calls yield with every partial permutation of n
// endpoints: every subset of sources, matched to every arrangement of
// every same-sized subset of destinations. The count grows as
// Σ_k C(n,k)² k!, so it is practical only for n ≤ 6. The Permutation
// passed to yield is reused; clone to retain. Stops early when yield
// returns false and reports whether enumeration completed.
func EnumerateSubsets(n int, yield func(*Permutation) bool) bool {
	p := New(n)
	var rec func(s int) bool
	rec = func(s int) bool {
		if s == n {
			return yield(p)
		}
		// Source s idle.
		if !rec(s + 1) {
			return false
		}
		// Source s sends to each free destination.
		for d := 0; d < n; d++ {
			taken := false
			for s2 := 0; s2 < s; s2++ {
				if p.dst[s2] == d {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			p.dst[s] = d
			if !rec(s + 1) {
				p.dst[s] = Unused
				return false
			}
			p.dst[s] = Unused
		}
		return true
	}
	return rec(0)
}

// Butterfly returns the k-th butterfly exchange: i → i XOR 2^k, for n a
// power of two with 2^k < n.
func Butterfly(n, k int) *Permutation {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("permutation: Butterfly size %d is not a power of two", n))
	}
	if k < 0 || 1<<k >= n {
		panic(fmt.Sprintf("permutation: Butterfly stage %d out of range for n=%d", k, n))
	}
	p := New(n)
	for i := 0; i < n; i++ {
		p.dst[i] = i ^ (1 << k)
	}
	return p
}
