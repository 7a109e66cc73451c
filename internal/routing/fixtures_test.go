package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// Routers and accessors that only tests use: fixtures and oracles for this
// package's tests and, through the routing_test package, its external
// tests. No program routes with them, so they are compiled into test
// binaries only.

// KAryDestMod is static destination-keyed up*/down* routing for the
// k-ary n-tree [14]: at every up hop the freed switch digit is taken from
// the destination address — the same d-mod-k family as on m-port n-trees.
type KAryDestMod struct {
	T *topology.KAryNTree
}

// NewKAryDestMod builds the router.
func NewKAryDestMod(t *topology.KAryNTree) *KAryDestMod { return &KAryDestMod{T: t} }

// Name returns "kary-dest-mod".
func (r *KAryDestMod) Name() string { return "kary-dest-mod" }

// PathFor routes (src, dst) with up-hop choices taken from the destination
// address digits.
func (r *KAryDestMod) PathFor(src, dst int) (topology.Path, error) {
	if src < 0 || src >= r.T.Hosts() || dst < 0 || dst >= r.T.Hosts() {
		return topology.Path{}, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
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
func (r *KAryDestMod) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.T.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}

// KAryRandomFixed freezes a uniformly random up-path per SD pair on the
// k-ary n-tree, reproducible per seed.
type KAryRandomFixed struct {
	T    *topology.KAryNTree
	seed int64
}

// NewKAryRandomFixed builds the router.
func NewKAryRandomFixed(t *topology.KAryNTree, seed int64) *KAryRandomFixed {
	return &KAryRandomFixed{T: t, seed: seed}
}

// Name returns "kary-random-fixed".
func (r *KAryRandomFixed) Name() string { return "kary-random-fixed" }

// PathFor routes (src, dst) over a seeded random up-path.
func (r *KAryRandomFixed) PathFor(src, dst int) (topology.Path, error) {
	if src < 0 || src >= r.T.Hosts() || dst < 0 || dst >= r.T.Hosts() {
		return topology.Path{}, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
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
func (r *KAryRandomFixed) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.T.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}

// MNTSpray is traffic-oblivious multipath on FT(m, n): each pair may use
// Width sampled up-paths (all distinct digit choices when Width covers the
// full diversity). Packets spray over the set per-packet in the simulator.
type MNTSpray struct {
	T *topology.MPortNTree
	// Width caps the number of paths per pair.
	Width int
	seed  int64
}

// NewMNTSpray builds the router; width ≥ 1.
func NewMNTSpray(t *topology.MPortNTree, width int, seed int64) (*MNTSpray, error) {
	if width < 1 {
		return nil, fmt.Errorf("routing: spray width %d < 1", width)
	}
	return &MNTSpray{T: t, Width: width, seed: seed}, nil
}

// Name returns "mnt-spray-<width>".
func (r *MNTSpray) Name() string { return fmt.Sprintf("mnt-spray-%d", r.Width) }

// PathsFor returns the pair's path set: every distinct up-digit choice
// when the diversity k^hops ≤ Width, otherwise Width distinct sampled
// choices.
func (r *MNTSpray) PathsFor(src, dst int) ([]topology.Path, error) {
	if src == dst {
		return selfPath(topology.NodeID(src)), nil
	}
	s, d := topology.NodeID(src), topology.NodeID(dst)
	hops := r.T.NumUpHops(s, d)
	k := r.T.K
	total := 1
	for i := 0; i < hops; i++ {
		total *= k
	}
	var paths []topology.Path
	if total <= r.Width {
		choices := make([]int, hops)
		for code := 0; code < total; code++ {
			x := code
			for l := 0; l < hops; l++ {
				choices[l] = x % k
				x /= k
			}
			p, err := r.T.UpDownPath(s, d, choices)
			if err != nil {
				return nil, err
			}
			paths = append(paths, p)
		}
		return paths, nil
	}
	rng := pairRNG(r.seed, src, dst)
	defer putPairRNG(rng)
	seen := map[int]bool{}
	for len(paths) < r.Width {
		code := rng.Intn(total)
		if seen[code] {
			continue
		}
		seen[code] = true
		choices := make([]int, hops)
		x := code
		for l := 0; l < hops; l++ {
			choices[l] = x % k
			x /= k
		}
		p, err := r.T.UpDownPath(s, d, choices)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// Route assigns the full path set to every SD pair.
func (r *MNTSpray) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.T.Net, p, r.PathsFor)
}

// NewPaperMultipath returns the multipath variant of the Theorem-3 scheme:
// pair ((v, i), (w, j)) may use any top switch in row i — the set
// {(i, 0), …, (i, n−1)} — spreading load while preserving clean uplinks.
// Downlinks then aggregate destinations, so this scheme demonstrates
// §IV.B: extra oblivious paths do not relax the nonblocking condition.
func NewPaperMultipath(f *topology.FoldedClos) (*FtreeMultipath, error) {
	if f.M < f.N*f.N {
		return nil, fmt.Errorf("routing: paper multipath needs m >= n^2")
	}
	n := f.N
	return &FtreeMultipath{
		F:          f,
		RouterName: "paper-multipath-row",
		TopSet: func(src, dst int) []int {
			i := src % n
			set := make([]int, n)
			for j := 0; j < n; j++ {
				set[j] = i*n + j
			}
			return set
		},
	}, nil
}

// ClosRearrangeable is GlobalRearrangeable's centralized baseline on the
// unidirectional three-stage Clos(n, m, r): every connection (including
// ones between same-indexed switches) crosses a middle switch chosen by
// edge coloring.
type ClosRearrangeable struct {
	C *topology.Clos
}

// NewClosRearrangeable builds the centralized Clos router.
func NewClosRearrangeable(c *topology.Clos) *ClosRearrangeable {
	return &ClosRearrangeable{C: c}
}

// Name returns "clos-rearrangeable".
func (r *ClosRearrangeable) Name() string { return "clos-rearrangeable" }

// Route interprets pattern sources as input terminals and destinations as
// output terminals and assigns middle switches by edge coloring. Any
// permutation is routed contention-free whenever m ≥ n (Benes [3]).
func (r *ClosRearrangeable) Route(p *permutation.Permutation) (*Assignment, error) {
	if p.N() != r.C.Ports() {
		return nil, fmt.Errorf("routing: pattern over %d endpoints, Clos has %d ports", p.N(), r.C.Ports())
	}
	pairs := p.Pairs()
	n := r.C.N
	edges := make([][2]int, len(pairs))
	for i, pr := range pairs {
		edges[i] = [2]int{pr.Src / n, pr.Dst / n}
	}
	colors, err := EdgeColorBipartite(r.C.R, r.C.R, edges)
	if err != nil {
		return nil, err
	}
	used := 0
	for _, c := range colors {
		if c+1 > used {
			used = c + 1
		}
	}
	if used > r.C.M {
		return nil, fmt.Errorf("routing: pattern needs %d middle switches, Clos has m=%d", used, r.C.M)
	}
	a := &Assignment{Net: r.C.Net, Pairs: pairs, PathSets: make([][]topology.Path, len(pairs)), TopSwitchesUsed: used}
	for i, pr := range pairs {
		a.PathSets[i] = []topology.Path{r.C.RouteVia(pr.Src, pr.Dst, colors[i])}
	}
	return a, nil
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

// Active reports the number of established circuits.
func (o *ClosOnline) Active() int { return len(o.active) }

// PathOf returns the circuit path of input terminal s.
func (o *ClosOnline) PathOf(s int) (topology.Path, error) {
	mid, ok := o.active[s]
	if !ok {
		return topology.Path{}, fmt.Errorf("routing: input terminal %d has no circuit", s)
	}
	return o.C.RouteVia(s, o.dstOf[s], mid), nil
}

// Reset tears down every circuit.
func (o *ClosOnline) Reset() {
	for s := range o.active {
		// Disconnect never fails for an active terminal.
		_ = o.Disconnect(s)
	}
}
