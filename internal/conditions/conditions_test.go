package conditions

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLemma2Cap(t *testing.T) {
	cases := []struct{ n, r, want int }{
		{1, 3, 6},   // r >= 2n+1: r(r-1)
		{2, 5, 20},  // boundary r = 2n+1: both forms equal 20
		{2, 8, 56},  // r(r-1)
		{3, 7, 42},  // boundary
		{2, 4, 16},  // r < 2n+1: 2nr
		{3, 4, 24},  // 2nr
		{4, 3, 24},  // 2nr
		{3, 10, 90}, // r(r-1)
	}
	for _, c := range cases {
		if got := Lemma2Cap(c.n, c.r); got != c.want {
			t.Errorf("Lemma2Cap(%d,%d) = %d, want %d", c.n, c.r, got, c.want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid parameters should panic")
			}
		}()
		Lemma2Cap(0, 3)
	}()
}

func TestLemma2CapBoundaryConsistent(t *testing.T) {
	// At r = 2n+1 the two branches agree: r(r-1) = (2n+1)2n = 2nr.
	for n := 1; n <= 10; n++ {
		r := 2*n + 1
		if r*(r-1) != 2*n*r {
			t.Fatalf("algebra broken at n=%d", n)
		}
	}
}

func TestDeterministicConditions(t *testing.T) {
	if DeterministicMinM(4) != 16 {
		t.Fatal("Theorem 2 bound wrong")
	}
	// Theorem 2 regime.
	if !IsDeterministicNonblockingFeasible(2, 4, 5) {
		t.Fatal("ftree(2+4,5) should be feasible")
	}
	if IsDeterministicNonblockingFeasible(2, 3, 5) {
		t.Fatal("m=3 < n²=4 should be infeasible for r >= 2n+1")
	}
	// Theorem 1 regime: r <= 2n+1 needs m >= ceil((r-1)n/2).
	if got := SmallTopMinM(3, 4); got != 5 { // ceil(3*3/2) = 5
		t.Fatalf("SmallTopMinM(3,4) = %d, want 5", got)
	}
	if !IsDeterministicNonblockingFeasible(3, 5, 4) {
		t.Fatal("m=5 should satisfy the small-top bound")
	}
	if IsDeterministicNonblockingFeasible(3, 4, 4) {
		t.Fatal("m=4 < 5 should fail the small-top bound")
	}
}

func TestTheorem1PortBound(t *testing.T) {
	// With r <= 2n+1 and m at the Lemma-2 minimum, ports r·n never exceed
	// 2(n+m).
	for n := 1; n <= 6; n++ {
		for r := 1; r <= 2*n+1; r++ {
			m := SmallTopMinM(n, r)
			ports := n * r
			if ports > Theorem1PortBound(n, m) {
				t.Errorf("n=%d r=%d m=%d: ports %d > bound %d", n, r, m, ports, Theorem1PortBound(n, m))
			}
		}
	}
	if Theorem1PortBound(3, 9) != 24 {
		t.Fatal("2(n+m) wrong")
	}
}

func TestSmallestC(t *testing.T) {
	cases := []struct{ n, r, want int }{
		{2, 2, 1}, {2, 3, 2}, {2, 4, 2}, {2, 5, 3}, {2, 8, 3}, {2, 9, 4},
		{3, 9, 2}, {3, 10, 3}, {4, 16, 2}, {4, 17, 3}, {5, 5, 1},
	}
	for _, c := range cases {
		if got := SmallestC(c.n, c.r); got != c.want {
			t.Errorf("SmallestC(%d,%d) = %d, want %d", c.n, c.r, got, c.want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("n=1 should panic")
			}
		}()
		SmallestC(1, 5)
	}()
}

func TestAdaptiveBounds(t *testing.T) {
	// Simple §V bound: ceil(n/(c+2))·(c+1)·n.
	if got := AdaptiveSimpleM(16, 2); got != 4*3*16 {
		t.Fatalf("AdaptiveSimpleM(16,2) = %d", got)
	}
	// It beats the deterministic n² once n > (c+1)(c+2) or so.
	for _, n := range []int{16, 32, 64} {
		if AdaptiveSimpleM(n, 2) >= n*n {
			t.Errorf("n=%d: simple adaptive bound %d not below n²=%d", n, AdaptiveSimpleM(n, 2), n*n)
		}
	}
	// Recurrence: T is monotone in n and bounded by n.
	prev := 0
	for n := 1; n <= 200; n++ {
		tn := AdaptiveRecurrenceT(n, 2)
		if tn < prev {
			t.Fatalf("T not monotone at n=%d", n)
		}
		if tn > n {
			t.Fatalf("T(%d)=%d exceeds n", n, tn)
		}
		prev = tn
	}
	if AdaptiveRecurrenceT(0, 2) != 0 {
		t.Fatal("T(0) != 0")
	}
	// Theorem-5 budget matches T·(c+1)·n.
	n, c := 50, 2
	if AdaptiveTheorem5M(n, c) != AdaptiveRecurrenceT(n, c)*(c+1)*n {
		t.Fatal("Theorem5M inconsistent")
	}
}

func TestAdaptiveAsymptoticallyBelowN2(t *testing.T) {
	// The Theorem-5 budget T(n)·(c+1)·n eventually drops below n² and
	// stays there. The constant factor is large: with c = 2 the crossover
	// sits at n = 8192 (recorded in EXPERIMENTS.md E4) — the *measured*
	// algorithm and the simple ((c+1)/(c+2))n² bound beat n² far earlier.
	c := 2
	crossed := false
	for n := 2; n <= 1<<16; n *= 2 {
		m := AdaptiveTheorem5M(n, c)
		if m < n*n {
			if !crossed && n != 8192 {
				t.Fatalf("crossover at n=%d, expected 8192", n)
			}
			crossed = true
		} else if crossed {
			t.Fatalf("budget re-crossed n² at n=%d", n)
		}
	}
	if !crossed {
		t.Fatal("Theorem-5 budget never dropped below n²")
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// Lemma6MinSpread returns the Lemma-6 guarantee ⌈k^(1/(2(c+1)))⌉ for a set
// of k distinct numbers of c+1 base-n digits: at least this many of them
// share no d₀ digit, or share no (dᵢ−d₀) mod n value for some i.
// The ceiling is safe: the lemma guarantees the real-valued bound, and a
// digit spread is integral.
func Lemma6MinSpread(k, c int) int {
	if k <= 0 {
		return 0
	}
	v := math.Pow(float64(k), 1/float64(2*(c+1)))
	s := int(math.Ceil(v - 1e-9))
	if s < 1 {
		s = 1
	}
	return s
}

// Lemma6Spread computes, for a set of distinct numbers written with c+1
// base-n digits d_c…d_0, the quantity Lemma 6 bounds from below: the
// maximum over the choices "count distinct d₀" and, for each i in [1, c],
// "count distinct (dᵢ−d₀) mod n".
func Lemma6Spread(nums []int, n, c int) int {
	if n < 1 {
		panic("conditions: Lemma6Spread needs n >= 1")
	}
	best := 0
	d0s := map[int]bool{}
	for _, x := range nums {
		d0s[x%n] = true
	}
	if len(d0s) > best {
		best = len(d0s)
	}
	for i := 1; i <= c; i++ {
		div := 1
		for j := 0; j < i; j++ {
			div *= n
		}
		vals := map[int]bool{}
		for _, x := range nums {
			di := (x / div) % n
			d0 := x % n
			vals[((di-d0)%n+n)%n] = true
		}
		if len(vals) > best {
			best = len(vals)
		}
	}
	return best
}

func TestLemma6SpreadAndMinSpread(t *testing.T) {
	// k distinct numbers of c+1 base-n digits.
	n, c := 4, 2
	// All numbers share d0=0 and differ only in d2: spread comes from
	// (d2 - d0) % n.
	nums := []int{0 * 16, 1 * 16, 2 * 16, 3 * 16}
	if got := Lemma6Spread(nums, n, c); got != 4 {
		t.Fatalf("spread = %d, want 4", got)
	}
	// Numbers with distinct d0.
	nums = []int{0, 1, 2, 3}
	if got := Lemma6Spread(nums, n, c); got != 4 {
		t.Fatalf("spread = %d, want 4", got)
	}
	if Lemma6MinSpread(0, 2) != 0 {
		t.Fatal("MinSpread(0) != 0")
	}
	if Lemma6MinSpread(1, 2) != 1 {
		t.Fatal("MinSpread(1) != 1")
	}
	// 64 numbers with c=2: 64^(1/6) = 2.
	if Lemma6MinSpread(64, 2) != 2 {
		t.Fatalf("MinSpread(64,2) = %d", Lemma6MinSpread(64, 2))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("n=0 should panic")
			}
		}()
		Lemma6Spread([]int{1}, 0, 1)
	}()
}

// Property test of Lemma 6 itself (E5): any set of k distinct (c+1)-digit
// base-n numbers has spread at least ceil(k^(1/(2(c+1)))).
func TestQuickLemma6(t *testing.T) {
	f := func(seed int64, nn, cc, kk uint8) bool {
		n := int(nn%5) + 2 // 2..6
		c := int(cc%3) + 1 // 1..3
		space := 1
		for i := 0; i <= c; i++ {
			space *= n
		}
		k := int(kk)%space + 1
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(space)[:k]
		return Lemma6Spread(perm, n, c) >= Lemma6MinSpread(k, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassicConditions(t *testing.T) {
	if ClosStrictM(4) != 7 {
		t.Fatal("Clos strict-sense condition wrong")
	}
	if ClosRearrangeableM(4) != 4 {
		t.Fatal("Benes rearrangeable condition wrong")
	}
	// The paper's hierarchy for n >= 2, large r:
	// rearrangeable n <= strict 2n-1 <= adaptive O(n^(2-eps)) <= deterministic n².
	for _, n := range []int{8, 16, 32} {
		c := 2
		if !(ClosRearrangeableM(n) <= ClosStrictM(n) &&
			ClosStrictM(n) <= AdaptiveTheorem5M(n, c) &&
			AdaptiveSimpleM(n, c) <= n*n) {
			t.Errorf("condition hierarchy violated at n=%d", n)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	if ceilDiv(7, 2) != 4 || ceilDiv(8, 2) != 4 || ceilDiv(1, 3) != 1 {
		t.Fatal("ceilDiv wrong")
	}
}
