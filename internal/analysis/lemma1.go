package analysis

import (
	"fmt"
	"math"
	"sync"

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

// linkView rebuilds one link's view by a filtered pass over the SD pairs
// (s ≠ d) with s in [s0, s1] and d in [d0, d1], in (s, d) order — the
// order LinkViews groups pairs in, so when that box holds every pair
// crossing the link the result equals LinkViews(r, hosts)[link] (with
// empty lists when no pair crosses it).
func (pl *pairLinker) linkView(link topology.LinkID, s0, s1, d0, d1 int) (*LinkSDView, error) {
	v := &LinkSDView{Link: link}
	for s := s0; s <= s1; s++ {
		for d := d0; d <= d1; d++ {
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

// lemma1Link is one link's fold state: the source and destination ranges
// of the pairs crossing it, empty (lemma1Unseen) until one does. A link
// carries many sources exactly when its source range is wider than one
// host, likewise for destinations, and the ranges bound the rebuild of a
// violated link's view.
type lemma1Link struct{ srcLo, srcHi, dstLo, dstHi int32 }

var lemma1Unseen = lemma1Link{srcLo: math.MaxInt32, srcHi: -1, dstLo: math.MaxInt32, dstHi: -1}

// lemma1Kernel is the Lemma-1 fold. Link l's state is
// chunks[l/1024][l%1024], indexed by the dense LinkID and grown a chunk at
// a time, so a decision allocates nothing per pair or per (pair, link) and
// never copies its state. Kernels are pooled with their chunks, so a warm
// decision allocates no state at all.
type lemma1Kernel struct {
	pairLinker
	chunks []*[1024]lemma1Link
	used   int // chunks holding this decision's state
}

var lemma1Kernels = sync.Pool{New: func() any { return new(lemma1Kernel) }}

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
			s32, d32 := int32(s), int32(d)
			for _, l := range links {
				c := int(l) >> 10
				if c >= k.used {
					k.grow(c + 1)
				}
				// Sources arrive in ascending order.
				st := &k.chunks[c][l&1023]
				st.srcLo, st.srcHi = min(st.srcLo, s32), s32
				st.dstLo, st.dstHi = min(st.dstLo, d32), max(st.dstHi, d32)
			}
		}
	}
	return nil
}

// grow brings n chunks into use, every link in them unseen, reusing the
// chunks of earlier decisions before allocating.
func (k *lemma1Kernel) grow(n int) {
	for ; k.used < n; k.used++ {
		if k.used == len(k.chunks) {
			k.chunks = append(k.chunks, new([1024]lemma1Link))
		}
		for c, i := k.chunks[k.used], 0; i < len(c); i++ {
			c[i] = lemma1Unseen
		}
	}
}

// result derives the verdict from the folded states: a link violates
// Lemma 1 exactly when it has many sources and many destinations. Only
// for a blocking routing is the lowest violating link's view rebuilt, from
// the pairs inside its source × destination ranges.
func (k *lemma1Kernel) result() (*Lemma1Result, error) {
	for l := 0; l < k.used<<10; l++ {
		if st := &k.chunks[l>>10][l&1023]; st.srcLo < st.srcHi && st.dstLo < st.dstHi {
			v, err := k.linkView(topology.LinkID(l), int(st.srcLo), int(st.srcHi), int(st.dstLo), int(st.dstHi))
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
	k := lemma1Kernels.Get().(*lemma1Kernel)
	defer lemma1Kernels.Put(k)
	k.r, k.used = r, 0
	if err := k.fold(hosts); err != nil {
		return nil, err
	}
	return k.result()
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
