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
	for _, id := range ids {
		load, _ := maxMatching(views[id])
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

// maxMatching computes a maximum matching of a link's SD pairs (sources
// left, destinations right) by augmenting paths — Kuhn's algorithm,
// adequate for per-link pair sets. matchDst[j] is the index into
// view.Sources matched to view.Dests[j], or -1 when unmatched.
func maxMatching(view *LinkSDView) (count int, matchDst []int) {
	srcIdx := make(map[int]int, len(view.Sources))
	for i, s := range view.Sources {
		srcIdx[s] = i
	}
	dstIdx := make(map[int]int, len(view.Dests))
	for i, d := range view.Dests {
		dstIdx[d] = i
	}
	adj := make([][]int, len(view.Sources))
	for _, pr := range view.Pairs {
		si := srcIdx[pr.Src]
		adj[si] = append(adj[si], dstIdx[pr.Dst])
	}
	matchDst = make([]int, len(view.Dests))
	for i := range matchDst {
		matchDst[i] = -1
	}
	seen := make([]bool, len(view.Dests))
	var try func(u int) bool
	try = func(u int) bool {
		for _, v := range adj[u] {
			if seen[v] {
				continue
			}
			seen[v] = true
			if matchDst[v] == -1 || try(matchDst[v]) {
				matchDst[v] = u
				return true
			}
		}
		return false
	}
	for u := range adj {
		clear(seen)
		if try(u) {
			count++
		}
	}
	return count, matchDst
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
	_, matchDst := maxMatching(view)
	p := permutation.New(hosts)
	for v, u := range matchDst {
		if u == -1 {
			continue
		}
		if err := p.Add(view.Sources[u], view.Dests[v]); err != nil {
			return nil, fmt.Errorf("analysis: matching not permutation-compatible: %w", err)
		}
	}
	return p, nil
}
