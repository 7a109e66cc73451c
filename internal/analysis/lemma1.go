package analysis

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// LinkSDView describes the traffic crossing one link of an all-pairs
// routing — the accounting illustrated by Fig. 3 of the paper.
type LinkSDView struct {
	Link topology.LinkID
	// Pairs are the SD pairs routed over the link.
	Pairs []permutation.Pair
	// Sources and Dests are the distinct endpoints among Pairs.
	Sources, Dests []int
}

// Lemma1Result is the outcome of checking a single-path deterministic
// routing against Lemma 1 over all SD pairs of the network. Per-link views
// of every loaded link are not part of it; LinkViews computes them.
type Lemma1Result struct {
	// Nonblocking is true when every link satisfies the predicate, which
	// by Lemma 1 is equivalent to the routing being nonblocking.
	Nonblocking bool
	// Violation, when not nonblocking, is the view of the lowest-ID link
	// violating the predicate: it carries two pairs with distinct sources
	// and destinations, which by the Lemma-1 necessity argument form a
	// permutation that blocks.
	Violation *LinkSDView
}

// Per-link endpoint states of the Lemma-1 kernel: lemma1None until a pair
// crosses the link, then the one host seen so far, then lemma1Many once a
// second distinct host appears. Hosts are non-negative, so the sentinels
// never collide with one.
const (
	lemma1None int32 = -1
	lemma1Many int32 = -2
)

// foldEndpoint folds host x ≥ 0 into a per-link endpoint state.
func foldEndpoint(cur, x int32) int32 {
	if cur == lemma1None || cur == x {
		return x
	}
	return lemma1Many
}

// pairLinker streams one SD pair's links from a single-path router's
// AppendPairLinks into one reused buffer.
type pairLinker struct {
	r   routing.PairRouter
	buf []topology.LinkID
}

// links returns pair (s, d)'s links, valid until the next call. Routing
// errors are wrapped with the pair, and a negative link ID is rejected the
// way routing.BuildRouteTable rejects it.
func (pl *pairLinker) links(s, d int) ([]topology.LinkID, error) {
	links, err := pl.r.AppendPairLinks(s, d, pl.buf[:0])
	if err != nil {
		return nil, fmt.Errorf("analysis: routing pair %d->%d: %w", s, d, err)
	}
	pl.buf = links
	for _, l := range links {
		if l < 0 {
			return nil, fmt.Errorf("analysis: routing pair %d->%d: invalid link id %d", s, d, l)
		}
	}
	return links, nil
}

// linkView rebuilds one link's view by a filtered pass over every SD pair
// (s ≠ d) in (s, d) order — the order LinkViews groups pairs in, so the
// result equals LinkViews(r, hosts)[link] (with empty lists when no pair
// crosses the link).
func (pl *pairLinker) linkView(hosts int, link topology.LinkID) (*LinkSDView, error) {
	v := &LinkSDView{Link: link}
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			links, err := pl.links(s, d)
			if err != nil {
				return nil, err
			}
			for _, l := range links {
				if l == link {
					v.Pairs = append(v.Pairs, permutation.Pair{Src: s, Dst: d})
					insertDistinct(&v.Sources, s)
					insertDistinct(&v.Dests, d)
				}
			}
		}
	}
	return v, nil
}

// lemma1Kernel is the flat-array Lemma-1 fold. src[l] and dst[l] hold link
// l's endpoint states, indexed by the dense LinkID and grown on demand, so
// deciding a routing allocates nothing per pair or per (pair, link).
type lemma1Kernel struct {
	pairLinker
	src, dst []int32
}

func newLemma1Kernel(r routing.PairRouter) *lemma1Kernel {
	return &lemma1Kernel{pairLinker: pairLinker{r: r}}
}

// fold routes every pair (s, d), s ≠ d, and folds its endpoints into each
// link it crosses. It stops at the first routing error in (s, d) order.
func (k *lemma1Kernel) fold(hosts int) error {
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			links, err := k.links(s, d)
			if err != nil {
				return err
			}
			for _, l := range links {
				if int(l) >= len(k.src) {
					k.grow(int(l) + 1)
				}
				k.src[l] = foldEndpoint(k.src[l], int32(s))
				k.dst[l] = foldEndpoint(k.dst[l], int32(d))
			}
		}
	}
	return nil
}

// grow extends the state arrays to at least n links (doubling, so growth
// costs O(log links) allocations).
func (k *lemma1Kernel) grow(n int) {
	n = max(n, 2*len(k.src))
	k.src = growEndpoints(k.src, n)
	k.dst = growEndpoints(k.dst, n)
}

// growEndpoints returns a copy of a extended to n states, the new ones
// lemma1None.
func growEndpoints(a []int32, n int) []int32 {
	g := make([]int32, n)
	copy(g, a)
	for i := len(a); i < n; i++ {
		g[i] = lemma1None
	}
	return g
}

// result derives the verdict from the folded states: a link violates
// Lemma 1 exactly when it has many sources and many destinations. Only
// for a blocking routing is the lowest violating link's view rebuilt.
func (k *lemma1Kernel) result(hosts int) (*Lemma1Result, error) {
	for l := range k.src {
		if k.src[l] == lemma1Many && k.dst[l] == lemma1Many {
			v, err := k.linkView(hosts, topology.LinkID(l))
			if err != nil {
				return nil, err
			}
			return &Lemma1Result{Violation: v}, nil
		}
	}
	return &Lemma1Result{Nonblocking: true}, nil
}

// CheckLemma1AllPairs routes every SD pair (s ≠ d) of an N-host network
// with a single-path deterministic router and evaluates Lemma 1: the
// routing is nonblocking if and only if each link carries traffic either
// from one source or to one destination. This is an *exact* nonblocking
// decision procedure for deterministic routing — no permutation
// enumeration needed. A routing error reports the first failing pair in
// (s, d) order.
func CheckLemma1AllPairs(r routing.PairRouter, hosts int) (*Lemma1Result, error) {
	k := newLemma1Kernel(r)
	if err := k.fold(hosts); err != nil {
		return nil, err
	}
	return k.result(hosts)
}

// LinkViews routes every SD pair (s ≠ d) with r and groups the pairs by
// the links they cross: the per-link accounting of Fig. 3 for every loaded
// link. Each view lists its pairs in (s, d) order and its distinct sources
// and destinations in first-appearance order. It is the input of the
// worst-case load analysis, and the reference the Lemma-1 kernel is tested
// against.
func LinkViews(r routing.PairRouter, hosts int) (map[topology.LinkID]*LinkSDView, error) {
	views := make(map[topology.LinkID]*LinkSDView)
	pl := pairLinker{r: r}
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			links, err := pl.links(s, d)
			if err != nil {
				return nil, err
			}
			for _, l := range links {
				v := views[l]
				if v == nil {
					v = &LinkSDView{Link: l}
					views[l] = v
				}
				v.Pairs = append(v.Pairs, permutation.Pair{Src: s, Dst: d})
				insertDistinct(&v.Sources, s)
				insertDistinct(&v.Dests, d)
			}
		}
	}
	return views, nil
}

func insertDistinct(s *[]int, x int) {
	for _, y := range *s {
		if y == x {
			return
		}
	}
	*s = append(*s, x)
}

// BlockingWitness extracts from a Lemma-1 violation a two-pair permutation
// that the routing blocks: two SD pairs with distinct sources and distinct
// destinations crossing the violated link (the constructive half of the
// Lemma-1 necessity proof).
func BlockingWitness(res *Lemma1Result, hosts int) (*permutation.Permutation, error) {
	if res.Nonblocking || res.Violation == nil {
		return nil, fmt.Errorf("analysis: routing is nonblocking; no witness exists")
	}
	v := res.Violation
	for i := 0; i < len(v.Pairs); i++ {
		for j := i + 1; j < len(v.Pairs); j++ {
			a, b := v.Pairs[i], v.Pairs[j]
			if a.Src != b.Src && a.Dst != b.Dst {
				return permutation.FromPairs(hosts, []permutation.Pair{a, b})
			}
		}
	}
	return nil, fmt.Errorf("analysis: internal error: violated link has no distinct-endpoint pair combination")
}
