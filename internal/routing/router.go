// Package routing implements every routing scheme the paper analyzes for
// folded-Clos networks, plus the baselines it compares against:
//
//   - single-path deterministic routing, including the paper's Theorem-3
//     scheme that makes ftree(n+n², r) nonblocking;
//   - traffic-oblivious multi-path deterministic routing (§IV.B);
//   - the local adaptive algorithm NONBLOCKINGADAPTIVE (Fig. 4);
//   - a greedy local adaptive baseline without the Class-DIFF guarantee;
//   - centralized (global) rearrangeable routing via bipartite edge
//     coloring, realizing the classic Benes m ≥ n condition;
//   - up*/down* deterministic and oblivious routing for m-port n-trees.
//
// All routers consume a permutation pattern over host indices and produce
// an Assignment: the set of paths that will carry each SD pair's traffic.
// A path is the list of links it loads — Definition 2's nonblocking
// property is about link contention alone — and contention properties of
// assignments are judged by package analysis.
//
// Each scheme has one routing body. A pattern-independent router
// implements PairLinkAppender: AppendPairLinks appends one pair's links,
// and Route (and PathFor, for single-path PairRouters) wrap it. A
// pattern-dependent adaptive router implements PatternLinkAppender, whose
// per-pair spans its Route cuts into an Assignment. Only Benes looping,
// global rearrangeable and greedy local routing build paths in Route
// itself.
//
// Every router in this package is safe for concurrent Route/PathFor calls:
// routing state is fixed at construction and per-call scratch is local.
// The multi-run simulation drivers (sim.RunTrials, sim.CompareToCrossbar,
// sim.LoadSweepParallel) and the parallel verification sweeps rely on this
// contract.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// Assignment is the output of routing a communication pattern: for each SD
// pair, the set of paths that may carry its packets. Deterministic
// single-path and adaptive routers produce exactly one path per pair;
// traffic-oblivious multi-path routers produce several (§IV.B: since the
// timing of path use is unpredictable, nonblocking analysis must account
// for every path in the set).
type Assignment struct {
	// Net is the network the paths live in.
	Net *topology.Network
	// Pairs lists the routed SD pairs in deterministic order.
	Pairs []permutation.Pair
	// PathSets[i] holds the paths assigned to Pairs[i]; always non-empty.
	PathSets [][]topology.Path
	// TopSwitchesUsed counts distinct top-level switches referenced by the
	// assignment, when the router tracks it (adaptive routing reports the
	// m it consumed); zero otherwise.
	TopSwitchesUsed int
	// Configurations counts scheduling configurations consumed by
	// NONBLOCKINGADAPTIVE; zero for other routers.
	Configurations int
}

// Router routes whole communication patterns. Deterministic routers ignore
// the pattern structure and route each pair independently; adaptive and
// global routers may examine it.
type Router interface {
	// Name identifies the scheme in reports and benchmarks.
	Name() string
	// Route assigns paths to every SD pair of the pattern.
	Route(p *permutation.Permutation) (*Assignment, error)
}

// PairLinkAppender is implemented by every router whose route for an SD
// pair depends only on (src, dst) — single-path deterministic routers and
// traffic-oblivious multi-path ones alike. AppendPairLinks is such a
// router's one routing body: Route, PathFor, route tables, the Lemma-1
// kernel and the simulator's path sets all derive from it, and contention
// accounting consumes its links directly with no allocation per pair.
type PairLinkAppender interface {
	Router
	// AppendPairLinks appends every link of the pair's path set to buf
	// and returns it; on error it returns buf unchanged. Self-pairs
	// (src == dst) append nothing. A multipath set's paths follow one
	// another, each ending on the link into dst, so links shared by
	// several paths repeat; the accounting layer deduplicates per pair.
	AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error)
}

// PairRouter is implemented by single-path deterministic routers, which
// route an SD pair in isolation over one path — the property that defines
// "deterministic" in the paper: the path depends only on (src, dst).
type PairRouter interface {
	PairLinkAppender
	// PathFor returns the unique path for the SD pair (src, dst), given
	// as host indices: AppendPairLinks's links as a Path.
	PathFor(src, dst int) (topology.Path, error)
}

// PatternLinkAppender is implemented by pattern-dependent routers (the
// adaptive schemes): the router plans the whole pattern in caller-owned
// scratch, then writes each pair's links into caller buffers, so a checker
// reusing both scores a pattern without allocating. It is the routers'
// one path-construction body: their Route cuts its spans into an
// Assignment.
type PatternLinkAppender interface {
	Router
	// AppendPatternLinks routes p, planning in s, and appends, pair by
	// pair in ascending source order (the order of Assignment.Pairs), the
	// links of each pair's path to links, and the end offset in links of
	// each pair's span to ends. Self-pairs contribute an empty span.
	AppendPatternLinks(p *permutation.Permutation, links []topology.LinkID, ends []int, s *PlanScratch) ([]topology.LinkID, []int, error)
}

// PlanScratch is a pattern router's working memory for one plan: the
// pattern's pairs, their top switches and the scheduling scratch, grown
// as needed and reused across calls. The zero value is ready. A router
// may be shared across goroutines; a PlanScratch may not.
type PlanScratch struct {
	pairs []permutation.Pair
	tops  []int
	sched []int
}

// routePairwise is Route for every pairwise router: it appends the links
// of p's pairs, in ascending source order, through la.AppendPairLinks and
// cuts them into an Assignment. The first failing pair's error is wrapped
// with the pair ("routing pair s->d: ...").
func routePairwise(net *topology.Network, la PairLinkAppender, p *permutation.Permutation) (*Assignment, error) {
	pairs := p.Pairs()
	links := make([]topology.LinkID, 0, 4*len(pairs)) // a two-level route per pair
	ends := make([]int, len(pairs))
	for i, pr := range pairs {
		var err error
		if links, err = la.AppendPairLinks(pr.Src, pr.Dst, links); err != nil {
			return nil, fmt.Errorf("routing pair %d->%d: %w", pr.Src, pr.Dst, err)
		}
		ends[i] = len(links)
	}
	return spanAssignment(net, pairs, links, ends), nil
}

// pathOf is PathFor for every single-path pairwise router.
func pathOf(la PairLinkAppender, src, dst int) (topology.Path, error) {
	links, err := la.AppendPairLinks(src, dst, nil)
	return topology.Path{Links: links}, err
}

// spanAssignment cuts a pattern's link spans into an Assignment: pair i's
// span ends at ends[i] in links and holds its paths back to back. Every
// path of a pair ends on the link into its destination — the span's last
// link — so a path closes wherever that link occurs. The empty span of a
// self-pair is one empty path. The paths share links as their backing
// array, capacity-limited so an append to one cannot overwrite another.
func spanAssignment(net *topology.Network, pairs []permutation.Pair, links []topology.LinkID, ends []int) *Assignment {
	paths := make([]topology.Path, 0, len(pairs))
	pathEnds := make([]int, len(pairs))
	lo := 0
	for i, hi := range ends {
		if lo == hi {
			paths = append(paths, topology.Path{})
		}
		for start, j := lo, lo; j < hi; j++ {
			if links[j] == links[hi-1] {
				paths = append(paths, topology.Path{Links: links[start : j+1 : j+1]})
				start = j + 1
			}
		}
		pathEnds[i], lo = len(paths), hi
	}
	a := &Assignment{Net: net, Pairs: pairs, PathSets: make([][]topology.Path, len(pairs))}
	lo = 0
	for i, hi := range pathEnds {
		a.PathSets[i], lo = paths[lo:hi:hi], hi
	}
	return a
}

// ErrUnknownScheme is returned (wrapped, with the name) by NewFtreeRouter
// for a scheme name it does not know.
var ErrUnknownScheme = errors.New("routing: unknown scheme")

// NewFtreeRouter builds a routing scheme on f by its CLI and /v1/verify
// name: paper | paper-folded | dest-mod | source-mod | dest-switch-mod |
// random-fixed | adaptive | greedy-local | global | spray. seed seeds
// random-fixed; sprayWidth picks a k-spray for spray, where 0 or a width
// of at least f.M sprays over all m trunks.
func NewFtreeRouter(f *topology.FoldedClos, scheme string, sprayWidth int, seed int64) (Router, error) {
	switch scheme {
	case "paper":
		return orNil(NewPaperDeterministic(f))
	case "paper-folded":
		return NewPaperDeterministicFolded(f), nil
	case "dest-mod":
		return NewDestMod(f), nil
	case "source-mod":
		return NewSourceMod(f), nil
	case "dest-switch-mod":
		return NewDestSwitchMod(f), nil
	case "random-fixed":
		return NewRandomFixed(f, seed), nil
	case "adaptive":
		return orNil(NewNonblockingAdaptive(f))
	case "greedy-local":
		return NewGreedyLocal(f), nil
	case "global":
		return NewGlobalRearrangeable(f), nil
	case "spray":
		if sprayWidth <= 0 || sprayWidth >= f.M {
			return NewFullSpray(f), nil
		}
		return orNil(NewKSpray(f, sprayWidth))
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownScheme, scheme)
}

// orNil widens a constructor's result to Router, keeping a failed build a
// nil interface rather than a typed nil.
func orNil[R Router](r R, err error) (Router, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}
