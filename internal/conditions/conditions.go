// Package conditions collects the closed-form nonblocking conditions and
// bounds the paper proves (Lemmas 2 and 6, Theorems 1, 2 and 5) together
// with the classic telephone-switching conditions it contrasts against
// (Clos strict-sense, Benes rearrangeable). Everything here is arithmetic
// on the network parameters; the empirical counterparts live in packages
// analysis and routing.
package conditions

import (
	"fmt"
	"math"
)

// Lemma2Cap returns the paper's upper bound on the number of SD pairs one
// top-level switch of ftree(n+m, r) can carry under the Lemma-1 link
// predicate: r(r−1) when r ≥ 2n+1, otherwise 2nr.
func Lemma2Cap(n, r int) int {
	if n < 1 || r < 1 {
		panic(fmt.Sprintf("conditions: invalid parameters n=%d r=%d", n, r))
	}
	if r >= 2*n+1 {
		return r * (r - 1)
	}
	return 2 * n * r
}

// DeterministicMinM returns the Theorem-2 nonblocking condition for
// single-path (and traffic-oblivious multi-path) deterministic routing
// when r ≥ 2n+1: m ≥ n². The bound is tight (Theorem 3).
func DeterministicMinM(n int) int { return n * n }

// IsDeterministicNonblockingFeasible reports whether ftree(n+m, r) can be
// nonblocking with single-path deterministic routing, per Theorems 2 and 3.
// (For r < 2n+1 the m ≥ ⌈(r−1)n/2⌉ consequence of Lemma 2 applies instead;
// see SmallTopMinM.)
func IsDeterministicNonblockingFeasible(n, m, r int) bool {
	if r >= 2*n+1 {
		return m >= n*n
	}
	return m >= SmallTopMinM(n, r)
}

// SmallTopMinM returns the Theorem-1 lower bound on m when r ≤ 2n+1:
// at least ⌈r(r−1)n² / (2nr)⌉ = ⌈(r−1)n/2⌉ top switches.
func SmallTopMinM(n, r int) int {
	return ceilDiv((r-1)*n, 2)
}

// Theorem1PortBound returns 2(n+m): the maximum number of ports a
// nonblocking ftree(n+m, r) with r ≤ 2n+1 can support under any
// single-path deterministic routing — the result showing that small top
// switches are not cost-effective.
func Theorem1PortBound(n, m int) int { return 2 * (n + m) }

// SmallestC returns the smallest integer c ≥ 1 with r ≤ n^c, the digit
// count used by NONBLOCKINGADAPTIVE. It panics for n < 2 (base-1 digit
// strings cannot address r > 1 switches).
func SmallestC(n, r int) int {
	if n < 2 {
		panic(fmt.Sprintf("conditions: SmallestC needs n >= 2, have n=%d", n))
	}
	c, pw := 1, n
	for pw < r {
		pw *= n
		c++
	}
	return c
}

// AdaptiveSimpleM returns the paper's coarse §V bound for
// NONBLOCKINGADAPTIVE: at most ⌈n/(c+2)⌉ configurations of (c+1)·n top
// switches, i.e. roughly ((c+1)/(c+2))·n² — already below the n² needed by
// deterministic routing.
func AdaptiveSimpleM(n, c int) int {
	return ceilDiv(n, c+2) * (c + 1) * n
}

// AdaptiveRecurrenceT evaluates the Theorem-5 recurrence
// T(x) ≤ T(x − ⌊x^(1/(2(c+1)))⌋) + 1 exactly, starting from x = n: the
// number of configurations consumed when each configuration's first greedy
// partition routes at least x^(1/(2(c+1))) of the switch's remaining x
// pairs (guaranteed by Lemmas 5 and 6).
func AdaptiveRecurrenceT(n, c int) int {
	if n <= 0 {
		return 0
	}
	t := 0
	x := n
	exp := 1.0 / float64(2*(c+1))
	for x > 0 {
		step := int(math.Pow(float64(x), exp))
		if step < 1 {
			step = 1
		}
		x -= step
		t++
	}
	return t
}

// AdaptiveTheorem5M returns the concrete Theorem-5 top-switch budget:
// T(n)·(c+1)·n with T from AdaptiveRecurrenceT — the O(n^(2−1/(2(c+1))))
// bound with explicit constants.
func AdaptiveTheorem5M(n, c int) int {
	return AdaptiveRecurrenceT(n, c) * (c + 1) * n
}

// UplinkPigeonholeMinM returns the routing-independent necessary
// condition m ≥ n for ftree(n+m, r) with r ≥ 2 to be nonblocking under
// any routing discipline, single- or multi-path: a permutation sending
// every host of one bottom switch to another switch needs n uplinks
// carrying one SD pair each, so with m < n two pairs share an uplink and
// the Lemma-1 predicate fails. (For r = 1 all traffic is intra-switch and
// m = 0 suffices; callers gate on r.)
func UplinkPigeonholeMinM(n int) int { return n }

// ClosStrictM returns the Clos 1953 strict-sense nonblocking condition for
// the telephone environment: m ≥ 2n−1 (centralized control assumed).
func ClosStrictM(n int) int { return 2*n - 1 }

// ClosRearrangeableM returns the Benes 1962 rearrangeably nonblocking
// condition: m ≥ n (centralized control and connection rearrangement
// assumed).
func ClosRearrangeableM(n int) int { return n }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
