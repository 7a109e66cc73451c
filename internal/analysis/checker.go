package analysis

import (
	"fmt"
	"slices"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Checker is the flat-array contention-accounting engine behind Check and
// every verification sweep. Link IDs are dense (the topology package
// assigns them consecutively from zero), so per-link state lives in slices
// indexed by LinkID instead of maps, and one Checker amortizes its scratch
// over an arbitrary number of patterns: analyzing a pattern does O(1)
// allocations once the scratch has warmed up, versus O(pairs) maps for the
// map-based accounting it replaced.
//
// A Checker is NOT safe for concurrent use; parallel sweeps give each
// worker its own. The slice ContendedLinks returns aliases internal
// scratch and is valid only until the next Analyze/AnalyzePattern call;
// Report materializes an independent map-based Report for callers that
// need to retain the analysis.
type Checker struct {
	// a is the last analyzed assignment (nil after AnalyzePattern's
	// assignment-free fast path).
	a *routing.Assignment
	// linkPairs[l] lists the indices of pairs whose path sets traverse
	// link l. Slices are truncated, never freed, between patterns.
	linkPairs [][]int
	// mark[l] == pairEpoch marks l as already counted for the pair being
	// added, deduplicating links shared by several paths of one pair
	// (§IV.B: a pair's path set loads each link once).
	mark      []uint64
	pairEpoch uint64
	// touched lists loaded links in first-touch order — the reset list.
	touched []topology.LinkID
	// contended lists links with load ≥ 2; sorted lazily.
	contended []topology.LinkID
	sorted    bool
	maxLoad   int
	pairs     int
	// linkBuf is scratch for PairLinkAppender and PatternLinkAppender
	// routers; ends delimits the latter's per-pair spans in it, and plan is
	// their planning scratch. plan is a pointer, allocated on first use by
	// a zero Checker: passing the address of a field to the interface call
	// would move every Checker, and the sweep kernel holding one by value,
	// to the heap.
	linkBuf []topology.LinkID
	ends    []int
	plan    *routing.PlanScratch
}

// NewChecker returns a Checker with scratch sized for net. A nil net is
// allowed; the scratch then grows on demand as link IDs are observed.
func NewChecker(net *topology.Network) *Checker {
	// One allocation holds the checker and its plan scratch, so a heap
	// Checker (one per campaign worker) pays nothing extra for it.
	cp := &struct {
		c Checker
		p routing.PlanScratch
	}{}
	c := &cp.c
	c.plan = &cp.p
	if net != nil {
		c.grow(net.NumLinks())
	}
	return c
}

func (c *Checker) grow(n int) {
	if n <= len(c.linkPairs) {
		return
	}
	lp := make([][]int, n)
	copy(lp, c.linkPairs)
	c.linkPairs = lp
	mk := make([]uint64, n)
	copy(mk, c.mark)
	c.mark = mk
}

// begin resets the per-pattern state, keeping allocated capacity.
func (c *Checker) begin(nLinks int) {
	c.grow(nLinks)
	for _, l := range c.touched {
		c.linkPairs[l] = c.linkPairs[l][:0]
	}
	c.touched = c.touched[:0]
	c.contended = c.contended[:0]
	c.sorted = false
	c.maxLoad = 0
	c.pairs = 0
	c.a = nil
}

// addLink records that pair i's path set crosses link l; repeated links
// within the current pair (same pairEpoch) are counted once.
func (c *Checker) addLink(i int, l topology.LinkID) {
	if int(l) >= len(c.linkPairs) {
		c.grow(int(l) + 1)
	}
	if c.mark[l] == c.pairEpoch {
		return
	}
	c.mark[l] = c.pairEpoch
	lp := c.linkPairs[l]
	if len(lp) == 0 {
		c.touched = append(c.touched, l)
	}
	c.linkPairs[l] = append(lp, i)
}

// finish derives the load summary after all pairs have been added.
func (c *Checker) finish(pairs int) {
	c.pairs = pairs
	for _, l := range c.touched {
		load := len(c.linkPairs[l])
		if load > c.maxLoad {
			c.maxLoad = load
		}
		if load >= 2 {
			c.contended = append(c.contended, l)
		}
	}
}

// Analyze computes the link loads of an assignment, exactly as Check does,
// into the Checker's reusable scratch.
func (c *Checker) Analyze(a *routing.Assignment) {
	c.begin(a.Net.NumLinks())
	for i, ps := range a.PathSets {
		c.pairEpoch++
		for _, p := range ps {
			for _, l := range p.Links {
				c.addLink(i, l)
			}
		}
	}
	c.finish(len(a.Pairs))
	c.a = a
}

// AnalyzePattern routes pattern p with r and analyzes its contention. When
// the router implements routing.PairLinkAppender or
// routing.PatternLinkAppender the pattern is analyzed without
// materializing an Assignment — the sweep and campaign hot path — and the
// resulting loads are identical to Analyze(r.Route(p)): pairs are indexed
// in ascending source order, matching Assignment.Pairs. Routing errors are
// returned exactly as Route returns them.
func (c *Checker) AnalyzePattern(r routing.Router, p *permutation.Permutation) error {
	switch rr := r.(type) {
	case routing.PairLinkAppender:
		return c.analyzePairs(rr, p)
	case routing.PatternLinkAppender:
		if c.plan == nil {
			c.plan = new(routing.PlanScratch)
		}
		links, ends, err := rr.AppendPatternLinks(p, c.linkBuf[:0], c.ends[:0], c.plan)
		c.linkBuf, c.ends = links, ends
		if err != nil {
			return err
		}
		c.begin(0)
		lo := 0
		for i, hi := range ends {
			c.pairEpoch++
			for _, l := range links[lo:hi] {
				c.addLink(i, l)
			}
			lo = hi
		}
		c.finish(len(ends))
		return nil
	}
	a, err := r.Route(p)
	if err != nil {
		return err
	}
	c.Analyze(a)
	return nil
}

// analyzePairs is AnalyzePattern for a pairwise router: each pair's links
// come straight from AppendPairLinks, errors wrapped as routePairwise
// wraps them.
func (c *Checker) analyzePairs(la routing.PairLinkAppender, p *permutation.Permutation) error {
	c.begin(0)
	buf := c.linkBuf
	i := 0
	var err error
	for s, n := 0, p.N(); s < n; s++ {
		d := p.Dst(s)
		if d == permutation.Unused {
			continue
		}
		buf, err = la.AppendPairLinks(s, d, buf[:0])
		if err != nil {
			c.linkBuf = buf
			return fmt.Errorf("routing pair %d->%d: %w", s, d, err)
		}
		c.pairEpoch++
		for _, l := range buf {
			c.addLink(i, l)
		}
		i++
	}
	c.linkBuf = buf
	c.finish(i)
	return nil
}

// MaxLoad is the largest number of SD pairs sharing one link in the last
// analyzed pattern.
func (c *Checker) MaxLoad() int { return c.maxLoad }

// HasContention reports whether any link carries two or more SD pairs.
func (c *Checker) HasContention() bool { return len(c.contended) > 0 }

// ContendedCount is the number of links carrying two or more SD pairs.
func (c *Checker) ContendedCount() int { return len(c.contended) }

// ContendedLinks returns the contended links in ascending ID order. The
// slice aliases Checker scratch: valid until the next analysis.
func (c *Checker) ContendedLinks() []topology.LinkID {
	if !c.sorted {
		slices.Sort(c.contended)
		c.sorted = true
	}
	return c.contended
}

// Report materializes the analysis as an independent map-based Report,
// byte-identical to what Check produces for the same assignment. After the
// assignment-free AnalyzePattern fast path the Report's Assignment field is
// nil.
func (c *Checker) Report() *Report {
	rep := &Report{
		Assignment: c.a,
		LinkPairs:  make(map[topology.LinkID][]int, len(c.touched)),
		MaxLoad:    c.maxLoad,
	}
	for _, l := range c.touched {
		rep.LinkPairs[l] = append([]int(nil), c.linkPairs[l]...)
	}
	rep.Contended = append([]topology.LinkID(nil), c.ContendedLinks()...)
	return rep
}
