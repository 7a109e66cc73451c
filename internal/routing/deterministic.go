package routing

import (
	"fmt"
	"math/rand"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// FtreeSinglePath is a single-path deterministic router for ftree(n+m, r):
// the top-level switch of each cross-switch SD pair is TopChoice(src, dst),
// a pure function of the endpoints. All concrete deterministic schemes
// (the paper's Theorem-3 scheme, destination-mod, source-mod, random-fixed)
// are instances with different TopChoice functions.
type FtreeSinglePath struct {
	F *topology.FoldedClos
	// TopChoice maps a cross-switch SD pair (host indices) to the index
	// of the top-level switch carrying it, in [0, m).
	TopChoice func(src, dst int) int
	// RouterName is reported by Name.
	RouterName string
	// PairCheck, when non-nil, can reject an SD pair before routing —
	// fault-aware schemes use it to refuse pairs with a detached
	// endpoint. It runs after the range check and before self-pair
	// handling.
	PairCheck func(src, dst int) error
}

// Name returns the scheme name.
func (r *FtreeSinglePath) Name() string { return r.RouterName }

// AppendPairLinks routes one SD pair: intra-switch pairs go through their
// bottom switch only; cross-switch pairs go through top switch
// TopChoice(s, d).
func (r *FtreeSinglePath) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	n := r.F.N
	if src < 0 || src >= r.F.Ports() || dst < 0 || dst >= r.F.Ports() {
		return buf, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if r.PairCheck != nil {
		if err := r.PairCheck(src, dst); err != nil {
			return buf, err
		}
	}
	if src == dst {
		return buf, nil
	}
	t := 0
	if src/n != dst/n {
		t = r.TopChoice(src, dst)
		if t < 0 || t >= r.F.M {
			return buf, fmt.Errorf("TopChoice(%d,%d) = %d out of [0,%d)", src, dst, t, r.F.M)
		}
	}
	return r.F.AppendRouteVia(buf, src, dst, t), nil
}

// PathFor returns AppendPairLinks's route as a Path.
func (r *FtreeSinglePath) PathFor(src, dst int) (topology.Path, error) { return pathOf(r, src, dst) }

// Route assigns a path to every SD pair of the pattern.
func (r *FtreeSinglePath) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.F.Net, r, p)
}

// NewPaperDeterministic returns the Theorem-3 routing algorithm for
// ftree(n+m, r): SD pair (s = (v, i), d = (w, j)) is routed through top
// switch (i, j) ≡ i·n+j. With m ≥ n² this routing is nonblocking for any
// permutation (Theorem 3); the constructor rejects smaller m — use
// NewPaperDeterministicFolded for the under-provisioned variant the
// tightness experiments block.
func NewPaperDeterministic(f *topology.FoldedClos) (*FtreeSinglePath, error) {
	if f.M < f.N*f.N {
		return nil, fmt.Errorf("routing: Theorem-3 scheme needs m >= n^2 (%d >= %d); ftree(%d+%d,%d) is under-provisioned",
			f.N*f.N, f.M, f.N, f.M, f.R)
	}
	n := f.N
	return &FtreeSinglePath{
		F:          f,
		RouterName: "paper-deterministic",
		TopChoice: func(src, dst int) int {
			i, j := src%n, dst%n
			return i*n + j
		},
	}, nil
}

// NewPaperDeterministicFolded returns the Theorem-3 scheme with the top
// switch index folded modulo m. For m ≥ n² it is identical to
// NewPaperDeterministic; for m < n² it shares top switches between (i, j)
// classes and therefore blocks some permutations — the construction used
// to demonstrate that the m ≥ n² condition in Theorem 2 is tight.
func NewPaperDeterministicFolded(f *topology.FoldedClos) *FtreeSinglePath {
	n, m := f.N, f.M
	return &FtreeSinglePath{
		F:          f,
		RouterName: fmt.Sprintf("paper-deterministic-folded(m=%d)", m),
		TopChoice: func(src, dst int) int {
			i, j := src%n, dst%n
			return (i*n + j) % m
		},
	}
}

// NewDestMod returns destination-based routing: the top switch is the
// destination host index modulo m. This mirrors the destination-keyed
// forwarding used by InfiniBand-style fat-tree routing ([12]): every
// packet to d climbs to the same top switch regardless of its source, so
// downlinks carry traffic to one destination but uplinks aggregate many
// sources — blocking for many permutations unless m is very large.
func NewDestMod(f *topology.FoldedClos) *FtreeSinglePath {
	m := f.M
	return &FtreeSinglePath{
		F:          f,
		RouterName: "dest-mod",
		TopChoice:  func(src, dst int) int { return dst % m },
	}
}

// NewSourceMod returns source-based routing: the top switch is the source
// host index modulo m. Symmetric to NewDestMod with uplinks clean and
// downlinks aggregated.
func NewSourceMod(f *topology.FoldedClos) *FtreeSinglePath {
	m := f.M
	return &FtreeSinglePath{
		F:          f,
		RouterName: "source-mod",
		TopChoice:  func(src, dst int) int { return src % m },
	}
}

// NewDestSwitchMod returns routing keyed on the destination switch index
// modulo m, the coarser destination-rooted-tree variant common in
// up*/down* InfiniBand deployments.
func NewDestSwitchMod(f *topology.FoldedClos) *FtreeSinglePath {
	n, m := f.N, f.M
	return &FtreeSinglePath{
		F:          f,
		RouterName: "dest-switch-mod",
		TopChoice:  func(src, dst int) int { return (dst / n) % m },
	}
}

// NewRandomFixed returns single-path routing with a uniformly random but
// fixed top switch per SD pair, drawn once from seed at construction: the
// "randomized routing" of Greenberg/Leiserson [6] frozen into a
// deterministic assignment. Path choices are reproducible for a seed.
func NewRandomFixed(f *topology.FoldedClos, seed int64) *FtreeSinglePath {
	rng := rand.New(rand.NewSource(seed))
	ports := f.Ports()
	choice := make([]int32, ports*ports)
	for i := range choice {
		choice[i] = int32(rng.Intn(f.M))
	}
	return &FtreeSinglePath{
		F:          f,
		RouterName: "random-fixed",
		TopChoice:  func(src, dst int) int { return int(choice[src*ports+dst]) },
	}
}
