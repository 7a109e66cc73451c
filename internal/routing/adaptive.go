package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// NonblockingAdaptive implements algorithm NONBLOCKINGADAPTIVE (Fig. 4 of
// the paper): local adaptive routing for ftree(n+m, r) that achieves
// nonblocking communication with m = O(n^(2−1/(2(c+1)))) top-level
// switches, where c is the smallest constant with r ≤ n^c.
//
// Bottom switches are numbered with c base-n digits s_{c−1}…s_0 and hosts
// with an extra low-order digit p. Top-level switches are organized into
// *configurations* of (c+1)·n switches, each split into c+1 *partitions*
// of n switches. Partition 0 of a configuration routes SD pairs keyed on
// the destination's local digit p; partition q ≥ 1 keys on
// (s_{q−1} − p) mod n. Every partition's keying is a Class-DIFF scheme
// (Lemma 4): two destinations in one switch always land on different top
// switches, so pairs from different source switches never contend
// (Lemma 3) and the algorithm only has to schedule pairs from the same
// switch, which it does greedily — per configuration, repeatedly routing
// the largest key-distinct subset on an unused partition (Lemma 5).
type NonblockingAdaptive struct {
	F *topology.FoldedClos
	// C is the number of base-n digits used for switch numbers.
	C int
	// FirstFit, when set, replaces the greedy largest-subset partition
	// choice (Fig. 4 line 7) with first-fit partition order — the
	// ablation showing the greedy step is what achieves the Theorem-5
	// bound.
	FirstFit bool
}

// NewNonblockingAdaptive builds the router for f, deriving c as the
// smallest integer with r ≤ n^c. It requires n ≥ 2 (with n = 1 every
// bottom switch has a single host and the trivial m = 1 deterministic
// routing is already nonblocking).
func NewNonblockingAdaptive(f *topology.FoldedClos) (*NonblockingAdaptive, error) {
	if f.N < 2 {
		return nil, fmt.Errorf("routing: NONBLOCKINGADAPTIVE needs n >= 2 (n=1 is nonblocking with m=1 deterministically)")
	}
	c := 1
	pw := f.N
	for pw < f.R {
		pw *= f.N
		c++
	}
	return &NonblockingAdaptive{F: f, C: c}, nil
}

// Name returns "nonblocking-adaptive" (or its first-fit ablation name).
func (r *NonblockingAdaptive) Name() string {
	if r.FirstFit {
		return "nonblocking-adaptive-firstfit"
	}
	return "nonblocking-adaptive"
}

// PartitionKey returns the §V key of destination host d under partition q:
// q = 0 keys on the local digit p; q ≥ 1 keys on (s_{q−1} − p) mod n.
// Within a partition, destinations with different keys may be routed
// concurrently (they use different top switches); destinations sharing a
// key must wait for another partition or configuration.
func (r *NonblockingAdaptive) PartitionKey(q, d int) int {
	n := r.F.N
	p := d % n
	if q == 0 {
		return p
	}
	w := d / n
	digit := w
	for i := 1; i < q; i++ {
		digit /= n
	}
	digit %= n
	return ((digit-p)%n + n) % n
}

// topIndex maps (configuration, partition, key) to a physical top-level
// switch index: configurations occupy consecutive blocks of (c+1)·n
// switches — the merge step of Fig. 4 lines 14–16, where corresponding
// partitions of every source switch's configuration share physical
// switches (safe by Lemma 4).
func (r *NonblockingAdaptive) topIndex(conf, q, key int) int {
	n := r.F.N
	return conf*(r.C+1)*n + q*n + key
}

// Plan runs the Fig. 4 scheduling and returns, for every SD pair, the top
// switch index it would use (−1 for intra-switch pairs that bypass the top
// level), along with the number of configurations consumed. Plan ignores
// the physical m, so experiments can measure how many top switches any
// permutation needs; Route enforces m.
//
// Plan works on flat arrays: pairs come sorted by source, so each source
// switch's cross-switch pairs form one contiguous run (the CSR grouping of
// line 1), and keys lie in [0, n), so the first pair of each key is a
// slot in an n-entry array. It allocates pairs, tops and one scratch
// slice, and its result is a pure function of p — nothing depends on map
// iteration order.
func (r *NonblockingAdaptive) Plan(p *permutation.Permutation) (tops []int, pairs []permutation.Pair, confs int, err error) {
	if p.N() != r.F.Ports() {
		return nil, nil, 0, fmt.Errorf("routing: pattern over %d endpoints, network has %d", p.N(), r.F.Ports())
	}
	pairs = p.Pairs()
	tops = make([]int, len(pairs))
	n := r.F.N
	// Scratch: one source switch's unrouted pairs; the first pair of each
	// key under the partition being tried and under the best one so far;
	// and the partitions used in the current configuration.
	scratch := make([]int, 3*n+r.C+1)
	remBuf, cand, best, used := scratch[:n:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	for i := range tops {
		tops[i] = -1
	}
	for lo := 0; lo < len(pairs); {
		// Line 1: the cross-switch pairs of source switch v, ascending.
		v := pairs[lo].Src / n
		rem := remBuf[:0]
		hi := lo
		for ; hi < len(pairs) && pairs[hi].Src/n == v; hi++ {
			if pr := pairs[hi]; pr.Src != pr.Dst && pr.Dst/n != v {
				rem = append(rem, hi)
			}
		}
		lo = hi
		conf := 0
		for len(rem) > 0 {
			// Line 5: allocate a new configuration.
			clear(used)
			for len(rem) > 0 {
				// Line 7: the largest key-distinct subset over unused
				// partitions (or the first unused partition in the
				// first-fit ablation); ties keep the lower partition.
				bestQ, bestCount := -1, 0
				for q := 0; q <= r.C; q++ {
					if used[q] != 0 {
						continue
					}
					for k := range cand {
						cand[k] = -1
					}
					count := 0
					for _, idx := range rem {
						if k := r.PartitionKey(q, pairs[idx].Dst); cand[k] < 0 {
							cand[k] = idx
							count++
						}
					}
					if bestQ == -1 || count > bestCount {
						bestQ, bestCount = q, count
						cand, best = best, cand
					}
					if r.FirstFit {
						break
					}
				}
				if bestQ == -1 {
					break // configuration exhausted (line 6)
				}
				// Lines 8–10: route the subset, mark partition used.
				for key, idx := range best {
					if idx >= 0 {
						tops[idx] = r.topIndex(conf, bestQ, key)
					}
				}
				used[bestQ] = 1
				next := rem[:0]
				for _, idx := range rem {
					if tops[idx] < 0 {
						next = append(next, idx)
					}
				}
				rem = next
			}
			conf++
		}
		confs = max(confs, conf)
	}
	return tops, pairs, confs, nil
}

// Route runs Plan and materializes paths, verifying that the physical
// network has enough top-level switches: m ≥ confs·(c+1)·n.
func (r *NonblockingAdaptive) Route(p *permutation.Permutation) (*Assignment, error) {
	tops, pairs, confs, need, err := r.plan(p)
	if err != nil {
		return nil, err
	}
	return r.assignPlan(pairs, tops, nil, confs, need), nil
}

// AppendPatternLinks implements PatternLinkAppender: the links of Route's
// paths, with Route's errors, without building them.
func (r *NonblockingAdaptive) AppendPatternLinks(p *permutation.Permutation, links []topology.LinkID, ends []int) ([]topology.LinkID, []int, error) {
	tops, pairs, _, _, err := r.plan(p)
	if err != nil {
		return links, ends, err
	}
	links, ends = r.appendPlanLinks(pairs, tops, nil, links, ends)
	return links, ends, nil
}

// plan runs Plan and checks that the configurations fit in the physical m.
func (r *NonblockingAdaptive) plan(p *permutation.Permutation) (tops []int, pairs []permutation.Pair, confs, need int, err error) {
	tops, pairs, confs, err = r.Plan(p)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	need = confs * (r.C + 1) * r.F.N
	if need > r.F.M {
		return nil, nil, 0, 0, fmt.Errorf("routing: pattern needs %d top switches (%d configurations of %d), network has m=%d",
			need, confs, (r.C+1)*r.F.N, r.F.M)
	}
	return tops, pairs, confs, need, nil
}

// assignPlan is Route's Assignment for a planned pattern: appendPlanLinks's
// spans, one path per pair, with the plan's configuration and top-switch
// counts.
func (r *NonblockingAdaptive) assignPlan(pairs []permutation.Pair, tops, physTop []int, confs, need int) *Assignment {
	links, ends := r.appendPlanLinks(pairs, tops, physTop, make([]topology.LinkID, 0, 4*len(pairs)), make([]int, 0, len(pairs)))
	a := spanAssignment(r.F.Net, pairs, links, ends)
	a.Configurations, a.TopSwitchesUsed = confs, need
	return a
}

// appendPlanLinks is the adaptive routers' one path-construction body,
// behind both Route and AppendPatternLinks: it appends each planned pair's
// links, in pair order and in RouteVia's link order, to links and the end
// offset of its span to ends. physTop maps a logical top-switch slot to a
// physical switch (the healthy-switch renumbering when avoiding failures);
// nil is the identity.
func (r *NonblockingAdaptive) appendPlanLinks(pairs []permutation.Pair, tops, physTop []int, links []topology.LinkID, ends []int) ([]topology.LinkID, []int) {
	for i, pr := range pairs {
		if pr.Src != pr.Dst {
			t := tops[i] // −1 for an intra-switch pair, which ignores it
			if t >= 0 && physTop != nil {
				t = physTop[t]
			}
			links = r.F.AppendRouteVia(links, pr.Src, pr.Dst, t)
		}
		ends = append(ends, len(links))
	}
	return links, ends
}

// RequiredM reports how many top-level switches the algorithm needs for
// pattern p: configurations·(c+1)·n.
func (r *NonblockingAdaptive) RequiredM(p *permutation.Permutation) (int, error) {
	_, _, confs, err := r.Plan(p)
	if err != nil {
		return 0, err
	}
	return confs * (r.C + 1) * r.F.N, nil
}

// GreedyLocal is the natural local adaptive baseline *without* the
// Class-DIFF guarantee: each source switch assigns its pairs to its
// least-used uplinks (ties toward lower top-switch indices), blind to what
// other switches choose. It spreads load well but two switches may steer
// pairs with different destinations in one switch through one top switch,
// so it is not nonblocking — the contrast motivating Lemma 3.
type GreedyLocal struct {
	F *topology.FoldedClos
}

// NewGreedyLocal builds the baseline router.
func NewGreedyLocal(f *topology.FoldedClos) *GreedyLocal { return &GreedyLocal{F: f} }

// Name returns "greedy-local".
func (r *GreedyLocal) Name() string { return "greedy-local" }

// Route assigns, per source switch independently, each cross-switch pair
// to the top switch whose uplink from this switch carries the fewest pairs
// so far.
func (r *GreedyLocal) Route(p *permutation.Permutation) (*Assignment, error) {
	if p.N() != r.F.Ports() {
		return nil, fmt.Errorf("routing: pattern over %d endpoints, network has %d", p.N(), r.F.Ports())
	}
	pairs := p.Pairs()
	a := &Assignment{Net: r.F.Net, Pairs: pairs, PathSets: make([][]topology.Path, len(pairs))}
	n := r.F.N
	load := make(map[int][]int) // source switch -> per-top uplink load
	for i, pr := range pairs {
		switch {
		case pr.Src == pr.Dst:
			a.PathSets[i] = []topology.Path{{}}
		case pr.Src/n == pr.Dst/n:
			a.PathSets[i] = []topology.Path{r.F.RouteVia(topology.NodeID(pr.Src), topology.NodeID(pr.Dst), 0)}
		default:
			v := pr.Src / n
			ld := load[v]
			if ld == nil {
				ld = make([]int, r.F.M)
				load[v] = ld
			}
			best := 0
			for t := 1; t < r.F.M; t++ {
				if ld[t] < ld[best] {
					best = t
				}
			}
			ld[best]++
			a.PathSets[i] = []topology.Path{r.F.RouteVia(topology.NodeID(pr.Src), topology.NodeID(pr.Dst), best)}
		}
	}
	return a, nil
}
