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
// Contention properties of assignments are judged by package analysis.
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

// Path returns the single path of pair i; it panics when the pair has more
// than one path (use PathSets for multipath assignments).
func (a *Assignment) Path(i int) topology.Path {
	if len(a.PathSets[i]) != 1 {
		panic(fmt.Sprintf("routing: pair %d has %d paths; single-path access invalid", i, len(a.PathSets[i])))
	}
	return a.PathSets[i][0]
}

// SinglePath reports whether every pair has exactly one assigned path.
func (a *Assignment) SinglePath() bool {
	for _, ps := range a.PathSets {
		if len(ps) != 1 {
			return false
		}
	}
	return true
}

// Validate checks that every path is internally consistent with the
// network and starts/ends at the pair's endpoints (self-pairs may have
// empty host-local paths).
func (a *Assignment) Validate() error {
	if len(a.Pairs) != len(a.PathSets) {
		return fmt.Errorf("routing: %d pairs but %d path sets", len(a.Pairs), len(a.PathSets))
	}
	for i, ps := range a.PathSets {
		if len(ps) == 0 {
			return fmt.Errorf("routing: pair %v has no paths", a.Pairs[i])
		}
		for _, p := range ps {
			if !p.Valid(a.Net) {
				return fmt.Errorf("routing: pair %v has an invalid path", a.Pairs[i])
			}
		}
	}
	return nil
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

// PairRouter is implemented by single-path deterministic routers, which
// can route an SD pair in isolation — the property that defines
// "deterministic" in the paper: the path depends only on (src, dst).
type PairRouter interface {
	Router
	// PathFor returns the unique path for the SD pair (src, dst), given
	// as host indices.
	PathFor(src, dst int) (topology.Path, error)
}

// MultiPairRouter is implemented by traffic-oblivious multi-path routers:
// the path *set* depends only on (src, dst); packets are spread over the
// set by a policy that does not see the traffic pattern.
type MultiPairRouter interface {
	Router
	// PathsFor returns every path packets of (src, dst) may take.
	PathsFor(src, dst int) ([]topology.Path, error)
}

// PairLinkAppender is the allocation-free fast path for contention
// accounting: routers that can enumerate the links of one SD pair's path
// set directly — without materializing Path or Assignment values — let
// verification sweeps analyze a pattern with zero allocations per pair.
// Implementations must report exactly the links PathFor/PathsFor would,
// with identical error conditions and messages, so sweep results are
// independent of which code path analyzed them.
type PairLinkAppender interface {
	Router
	// AppendPairLinks appends every link of the pair's path set to buf
	// and returns it. Self-pairs (src == dst) append nothing. Links of a
	// multipath set may repeat; the accounting layer deduplicates per
	// pair.
	AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error)
}

// routePairwise assembles an Assignment for a pattern using a per-pair
// path-set function.
func routePairwise(net *topology.Network, p *permutation.Permutation, pathsFor func(s, d int) ([]topology.Path, error)) (*Assignment, error) {
	pairs := p.Pairs()
	a := &Assignment{Net: net, Pairs: pairs, PathSets: make([][]topology.Path, len(pairs))}
	for i, pr := range pairs {
		ps, err := pathsFor(pr.Src, pr.Dst)
		if err != nil {
			return nil, fmt.Errorf("routing pair %d->%d: %w", pr.Src, pr.Dst, err)
		}
		a.PathSets[i] = ps
	}
	return a, nil
}

// selfPath is the degenerate path of a self-pair (s == d): the traffic
// never leaves the host, so it occupies no network link.
func selfPath(host topology.NodeID) []topology.Path {
	return []topology.Path{{Nodes: []topology.NodeID{host}}}
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
