package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// FtreeMultipath is traffic-oblivious multi-path deterministic routing for
// ftree(n+m, r) (§IV.B): each cross-switch SD pair may use any top switch
// in its predetermined path set, with packets spread over the set by a
// pattern-oblivious policy (round-robin or hashed). Because the instant at
// which each path carries a packet is unpredictable, the nonblocking
// analysis must treat every path in the set as loaded, which is why the
// paper proves the m ≥ n² condition carries over unchanged from
// single-path routing.
type FtreeMultipath struct {
	F *topology.FoldedClos
	// TopSet maps a cross-switch SD pair to the top-level switch indices
	// its packets may use; must be non-empty.
	TopSet func(src, dst int) []int
	// RouterName is reported by Name.
	RouterName string
}

// Name returns the scheme name.
func (r *FtreeMultipath) Name() string { return r.RouterName }

// PathsFor returns every path the pair's packets may take.
func (r *FtreeMultipath) PathsFor(src, dst int) ([]topology.Path, error) {
	n := r.F.N
	if src < 0 || src >= r.F.Ports() || dst < 0 || dst >= r.F.Ports() {
		return nil, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if src == dst {
		return selfPath(topology.NodeID(src)), nil
	}
	if src/n == dst/n {
		return []topology.Path{r.F.RouteVia(topology.NodeID(src), topology.NodeID(dst), 0)}, nil
	}
	set := r.TopSet(src, dst)
	if len(set) == 0 {
		return nil, fmt.Errorf("empty top-switch set for pair %d->%d", src, dst)
	}
	paths := make([]topology.Path, len(set))
	for i, t := range set {
		if t < 0 || t >= r.F.M {
			return nil, fmt.Errorf("TopSet(%d,%d) contains %d out of [0,%d)", src, dst, t, r.F.M)
		}
		paths[i] = r.F.RouteVia(topology.NodeID(src), topology.NodeID(dst), t)
	}
	return paths, nil
}

// Route assigns the full path set to every SD pair of the pattern.
func (r *FtreeMultipath) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.F.Net, p, r.PathsFor)
}

// AppendPairLinks implements PairLinkAppender: it appends the link IDs of
// every path in PathsFor(src, dst) without building Path values, with
// identical error conditions and messages. Links shared by several paths
// of the set (the host up/down links, always) repeat in the output; the
// accounting layer deduplicates per pair.
func (r *FtreeMultipath) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	n := r.F.N
	if src < 0 || src >= r.F.Ports() || dst < 0 || dst >= r.F.Ports() {
		return buf, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if src == dst {
		return buf, nil
	}
	sv, sk := src/n, src%n
	dv, dk := dst/n, dst%n
	if sv == dv {
		return append(buf, r.F.HostUpLink(sv, sk), r.F.HostDownLink(dv, dk)), nil
	}
	set := r.TopSet(src, dst)
	if len(set) == 0 {
		return buf, fmt.Errorf("empty top-switch set for pair %d->%d", src, dst)
	}
	for _, t := range set {
		if t < 0 || t >= r.F.M {
			return buf, fmt.Errorf("TopSet(%d,%d) contains %d out of [0,%d)", src, dst, t, r.F.M)
		}
		buf = append(buf,
			r.F.HostUpLink(sv, sk),
			r.F.UpLink(sv, t),
			r.F.DownLink(t, dv),
			r.F.HostDownLink(dv, dk))
	}
	return buf, nil
}

// NewFullSpray returns the maximal oblivious multipath scheme: every
// cross-switch pair may use all m top switches (per-packet spraying, the
// InfiniBand LMC-style multipath of [8] pushed to its limit).
func NewFullSpray(f *topology.FoldedClos) *FtreeMultipath {
	all := make([]int, f.M)
	for i := range all {
		all[i] = i
	}
	return &FtreeMultipath{
		F:          f,
		RouterName: "full-spray",
		TopSet:     func(src, dst int) []int { return all },
	}
}

// NewKSpray returns oblivious multipath over k paths per pair: pair
// (s, d) may use top switches (s+d+i) mod m for i in [0, k) — a fixed,
// traffic-independent subset as in multiple-LID routing [12].
func NewKSpray(f *topology.FoldedClos, k int) (*FtreeMultipath, error) {
	if k < 1 || k > f.M {
		return nil, fmt.Errorf("routing: spray width %d out of [1,%d]", k, f.M)
	}
	m := f.M
	return &FtreeMultipath{
		F:          f,
		RouterName: fmt.Sprintf("spray-%d", k),
		TopSet: func(src, dst int) []int {
			set := make([]int, k)
			for i := 0; i < k; i++ {
				set[i] = (src + dst + i) % m
			}
			return set
		},
	}, nil
}
