package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// MNTDestMod is static destination-keyed up*/down* routing for the m-port
// n-tree FT(m, n): at every up hop the freed digit is taken from the
// destination address (the d-mod-k family used by InfiniBand fat-tree
// subnet managers [12]). Deterministic and pattern-oblivious — the routing
// whose blocking behaviour on rearrangeably-nonblocking fat-trees
// motivates the paper ([5], [7]).
type MNTDestMod struct {
	T *topology.MPortNTree
}

// NewMNTDestMod builds the router.
func NewMNTDestMod(t *topology.MPortNTree) *MNTDestMod { return &MNTDestMod{T: t} }

// Name returns "mnt-dest-mod".
func (r *MNTDestMod) Name() string { return "mnt-dest-mod" }

// PathFor routes (src, dst) with up-hop choices derived from the
// destination host index: choice at up hop l is digit l of dst in base k.
func (r *MNTDestMod) PathFor(src, dst int) (topology.Path, error) {
	if src == dst {
		return topology.Path{Nodes: []topology.NodeID{topology.NodeID(src)}}, nil
	}
	s, d := topology.NodeID(src), topology.NodeID(dst)
	hops := r.T.NumUpHops(s, d)
	choices := make([]int, hops)
	x := dst
	for l := 0; l < hops; l++ {
		choices[l] = x % r.T.K
		x /= r.T.K
	}
	return r.T.UpDownPath(s, d, choices)
}

// Route assigns a path to every SD pair of the pattern.
func (r *MNTDestMod) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.T.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}

// MNTRandomFixed is static routing with a uniformly random but fixed
// up-path per SD pair — randomized oblivious routing [6] frozen into a
// deterministic assignment, reproducible per seed.
type MNTRandomFixed struct {
	T    *topology.MPortNTree
	seed int64
}

// NewMNTRandomFixed builds the router.
func NewMNTRandomFixed(t *topology.MPortNTree, seed int64) *MNTRandomFixed {
	return &MNTRandomFixed{T: t, seed: seed}
}

// Name returns "mnt-random-fixed".
func (r *MNTRandomFixed) Name() string { return "mnt-random-fixed" }

// PathFor routes (src, dst) over the up-path whose digit choices are drawn
// from a per-pair seeded generator.
func (r *MNTRandomFixed) PathFor(src, dst int) (topology.Path, error) {
	if src == dst {
		return topology.Path{Nodes: []topology.NodeID{topology.NodeID(src)}}, nil
	}
	s, d := topology.NodeID(src), topology.NodeID(dst)
	hops := r.T.NumUpHops(s, d)
	rng := pairRNG(r.seed, src, dst)
	choices := make([]int, hops)
	for l := range choices {
		choices[l] = rng.Intn(r.T.K)
	}
	putPairRNG(rng)
	return r.T.UpDownPath(s, d, choices)
}

// Route assigns a path to every SD pair of the pattern.
func (r *MNTRandomFixed) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.T.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}

// ThreeLevelPaper wraps the recursive Theorem-3 routing of the three-level
// nonblocking construction (Discussion §IV.A): the outer level picks
// virtual top network (i, j), the inner level re-applies the same rule to
// the virtual switch's port numbers.
type ThreeLevelPaper struct {
	T *topology.ThreeLevelFtree
}

// NewThreeLevelPaper builds the router.
func NewThreeLevelPaper(t *topology.ThreeLevelFtree) *ThreeLevelPaper {
	return &ThreeLevelPaper{T: t}
}

// Name returns "paper-three-level".
func (r *ThreeLevelPaper) Name() string { return "paper-three-level" }

// PathFor routes one SD pair through the recursive construction.
func (r *ThreeLevelPaper) PathFor(src, dst int) (topology.Path, error) {
	if src < 0 || src >= r.T.Ports() || dst < 0 || dst >= r.T.Ports() {
		return topology.Path{}, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if src == dst {
		return topology.Path{Nodes: []topology.NodeID{topology.NodeID(src)}}, nil
	}
	return r.T.Route(topology.NodeID(src), topology.NodeID(dst)), nil
}

// Route assigns a path to every SD pair of the pattern.
func (r *ThreeLevelPaper) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.T.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}

// MultiLevelPaper wraps the recursive Theorem-3 routing of the generic
// L-level nonblocking construction (topology.MultiFtree): at every level
// the virtual top network (i, j) is selected from the port numbers' local
// digits, recursively down to physical switches.
type MultiLevelPaper struct {
	T *topology.MultiFtree
}

// NewMultiLevelPaper builds the router.
func NewMultiLevelPaper(t *topology.MultiFtree) *MultiLevelPaper {
	return &MultiLevelPaper{T: t}
}

// Name returns "paper-multi-level".
func (r *MultiLevelPaper) Name() string { return "paper-multi-level" }

// PathFor routes one SD pair through the recursive construction.
func (r *MultiLevelPaper) PathFor(src, dst int) (topology.Path, error) {
	if src < 0 || src >= r.T.Ports() || dst < 0 || dst >= r.T.Ports() {
		return topology.Path{}, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if src == dst {
		return topology.Path{Nodes: []topology.NodeID{topology.NodeID(src)}}, nil
	}
	return r.T.Route(topology.NodeID(src), topology.NodeID(dst)), nil
}

// Route assigns a path to every SD pair of the pattern.
func (r *MultiLevelPaper) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.T.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}

// CrossbarRouter routes on the reference crossbar: every pair crosses the
// single switch and never contends with any other pair of a permutation.
type CrossbarRouter struct {
	X *topology.Crossbar
}

// NewCrossbarRouter builds the router.
func NewCrossbarRouter(x *topology.Crossbar) *CrossbarRouter { return &CrossbarRouter{X: x} }

// Name returns "crossbar".
func (r *CrossbarRouter) Name() string { return "crossbar" }

// PathFor routes one pair through the crossbar.
func (r *CrossbarRouter) PathFor(src, dst int) (topology.Path, error) {
	if src < 0 || src >= r.X.N || dst < 0 || dst >= r.X.N {
		return topology.Path{}, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if src == dst {
		return topology.Path{Nodes: []topology.NodeID{topology.NodeID(src)}}, nil
	}
	return r.X.Route(src, dst), nil
}

// Route assigns a path to every SD pair of the pattern.
func (r *CrossbarRouter) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.X.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}
