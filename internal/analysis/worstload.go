package analysis

import (
	"fmt"
	"slices"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Exact worst-case contention for deterministic routing, in the spirit of
// the oblivious-performance-ratio analysis of [17]: for a single-path
// deterministic routing, the worst number of SD pairs a permutation can
// simultaneously place on link L equals the maximum matching of L's
// pair set viewed as a bipartite graph (sources × destinations) — a
// permutation may use each source and each destination at most once
// (Property 1), and conversely any source/destination-distinct subset
// extends to a permutation. Maximizing over links yields the routing's
// exact worst-case link load:
//
//   - 1 for a nonblocking routing (this is Lemma 1 restated: every link's
//     pair set has all-equal sources or all-equal destinations, so its
//     matching number is 1);
//   - ≥ 2 for every blocking routing, quantifying *how* blocking it is.

// WorstLoadResult reports the exact worst-case analysis.
type WorstLoadResult struct {
	// MaxLoad is the largest permutation-realizable load on any link.
	MaxLoad int
	// Link attains the maximum.
	Link topology.LinkID
	// PerLink maps every loaded link to its worst-case load.
	PerLink map[topology.LinkID]int
}

// WorstCaseLinkLoad routes all SD pairs of an N-host network under a
// single-path deterministic router and computes, per link, the maximum
// matching of its pair set — the exact worst-case number of permutation
// flows that can collide there.
func WorstCaseLinkLoad(r routing.PairRouter, hosts int) (*WorstLoadResult, error) {
	views, err := LinkViews(r, hosts)
	if err != nil {
		return nil, err
	}
	ids := make([]topology.LinkID, 0, len(views))
	for id := range views {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := &WorstLoadResult{PerLink: make(map[topology.LinkID]int, len(ids)), Link: topology.NoLink}
	m := newMatching(hosts)
	for _, id := range ids {
		load := m.ofView(views[id])
		out.PerLink[id] = load
		// Ascending IDs with a strict comparison: ties break toward the
		// lowest link ID.
		if load > out.MaxLoad {
			out.MaxLoad = load
			out.Link = id
		}
	}
	return out, nil
}

// ofView builds the bipartite graph of a link's SD pairs on m, numbering
// the sources in view.Sources order, and returns its maximum matching's
// size: m.owner[d] is then the matched source's position in view.Sources,
// or −1. view.Pairs come in (s, d) order, so each source's pairs are one
// run and the sources appear in view.Sources order.
func (m *matching) ofView(view *LinkSDView) int {
	m.adj, m.off = m.adj[:0], m.off[:0]
	for i, pr := range view.Pairs {
		if i == 0 || pr.Src != view.Pairs[i-1].Src {
			m.off = append(m.off, int32(len(m.adj)))
		}
		m.adj = append(m.adj, int32(pr.Dst))
	}
	m.off = append(m.off, int32(len(m.adj)))
	return m.size()
}

// WorstCasePermutationFor constructs a permutation realizing the
// worst-case load on the given link: the matched pairs of the link's
// maximum matching, which are source- and destination-distinct by
// construction. The returned pattern routes `load` pairs over one link.
// Only the requested link's view is built, by the single-link pass the
// Lemma-1 kernel uses for its violation.
func WorstCasePermutationFor(r routing.PairRouter, hosts int, link topology.LinkID) (*permutation.Permutation, error) {
	pl := newPairLinker(r)
	view, err := pl.linkView(hosts, link)
	if err != nil {
		return nil, err
	}
	if len(view.Pairs) == 0 {
		return nil, fmt.Errorf("analysis: link %d carries no SD pairs", link)
	}
	m := newMatching(hosts)
	m.ofView(view)
	p := permutation.New(hosts)
	for d, u := range m.owner {
		if u == -1 {
			continue
		}
		if err := p.Add(view.Sources[u], d); err != nil {
			return nil, fmt.Errorf("analysis: matching not permutation-compatible: %w", err)
		}
	}
	return p, nil
}

// matching is the reusable scratch of a maximum bipartite matching between
// sources, numbered from 0, and destination hosts: adj[off[i]:off[i+1]]
// lists the destinations source i may take. One buffer holds it all, so a
// caller that keeps it pays one allocation for every matching it runs.
type matching struct {
	adj, off []int32
	// owner[dt] is the source matched to dt, or −1.
	owner []int32
	// seen[dt] == stamp marks dt as visited by the current augmentation.
	seen  []int32
	stamp int32
}

func newMatching(hosts int) matching {
	buf := make([]int32, hosts*hosts+3*hosts+1)
	adj, buf := buf[:0:hosts*hosts], buf[hosts*hosts:]
	off, buf := buf[:0:hosts+1], buf[hosts+1:]
	return matching{adj: adj, off: off, owner: buf[:hosts], seen: buf[hosts:]}
}

// size returns the maximum matching's size, grown one source at a time by
// augmenting paths (Kuhn's algorithm).
func (m *matching) size() int {
	for i := range m.owner {
		m.owner[i], m.seen[i] = -1, 0
	}
	m.stamp = 0
	k := 0
	for i := int32(0); int(i)+1 < len(m.off); i++ {
		m.stamp++
		if m.augment(i) {
			k++
		}
	}
	return k
}

func (m *matching) augment(i int32) bool {
	for _, dt := range m.adj[m.off[i]:m.off[i+1]] {
		if m.seen[dt] == m.stamp {
			continue
		}
		m.seen[dt] = m.stamp
		if o := m.owner[dt]; o < 0 || m.augment(o) {
			m.owner[dt] = i
			return true
		}
	}
	return false
}
