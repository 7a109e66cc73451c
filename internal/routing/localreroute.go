package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// LocalReroute implements Bankhamer-style randomized local fast rerouting
// (Bankhamer, Elsässer & Schmid, "Randomized Local Fast Rerouting for
// Datacenter Networks with Almost Optimal Congestion", PAPERS.md) adapted
// to the paper's two-level folded Clos: failover happens at the point of
// failure using only link health that is locally visible at each switch,
// with no global route recomputation.
//
// A packet for cross-switch pair (src, dst) first tries the Theorem-3
// class switch. When a switch finds the next link dead it deflects to a
// pseudo-random healthy alternative: a bottom switch picks another intact
// uplink, and a top switch that cannot reach the destination's bottom
// switch bounces the packet down to a random healthy bottom switch, which
// retries upward. Deflection targets are drawn from a SplitMix64 stream
// keyed on (seed, src, dst), so the walk is a pure function of the
// endpoints: LocalReroute is a PairRouter, cacheable in route tables and
// byte-reproducible across runs, while still modeling the independent
// per-switch coin flips of the scheme (distinct pairs get unrelated
// streams).
//
// The walk gives up after a visit budget of 4+⌈log₂ m⌉ top switches; on a
// connected degraded fabric the random deflections escape any local
// minimum well before that with high probability, mirroring the paper's
// O(log n)-bounce bound.
type LocalReroute struct {
	F    *topology.FoldedClos
	view *topology.FailureView
	seed int64
	// maxVisits bounds the top-level switches one packet may visit.
	maxVisits int
}

// NewLocalReroute builds the local-reroute router for the failure view
// (nil means a pristine fabric).
func NewLocalReroute(f *topology.FoldedClos, view *topology.FailureView, seed int64) *LocalReroute {
	if view == nil {
		view, _ = topology.FailureSet{}.View(f)
	}
	visits := 4
	for m := f.M; m > 1; m >>= 1 {
		visits++
	}
	return &LocalReroute{F: f, view: view, seed: seed, maxVisits: visits}
}

// Name returns "local-reroute".
func (r *LocalReroute) Name() string { return "local-reroute" }

// AppendPairLinks walks the deflection route for one SD pair and appends
// its links. It errors when an endpoint is detached, a switch has no
// healthy escape link, or the visit budget is exhausted.
func (r *LocalReroute) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	f, v, n := r.F, r.view, r.F.N
	if src < 0 || src >= f.Ports() || dst < 0 || dst >= f.Ports() {
		return buf, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if !v.HostAlive(src) || !v.HostAlive(dst) {
		return buf, fmt.Errorf("routing: pair %d->%d uses a detached host (failed bottom switch)", src, dst)
	}
	if src == dst {
		return buf, nil
	}
	sv, sk := src/n, src%n
	dv, dk := dst/n, dst%n
	links := append(buf, f.HostUpLink(sv, sk))
	if sv == dv {
		return append(links, f.HostDownLink(dv, dk)), nil
	}
	pref := ((src%n)*n + dst%n) % f.M // Theorem-3 class switch (folded for small m)
	state := uint64(pairSeed(r.seed, src, dst))
	cur, lastTop := sv, -1
	for visit := 0; visit < r.maxVisits; visit++ {
		var t int
		if visit == 0 && !v.TrunkFailed(cur, pref) {
			t = pref
		} else {
			t = r.pickTop(cur, lastTop, &state)
		}
		if t < 0 {
			return buf, fmt.Errorf("routing: local reroute for %d->%d stuck at bottom switch %d: no healthy uplink", src, dst, cur)
		}
		links = append(links, f.UpLink(cur, t))
		if !v.TrunkFailed(dv, t) {
			return append(links, f.DownLink(t, dv), f.HostDownLink(dv, dk)), nil
		}
		// The top switch cannot reach the destination: bounce down to a
		// random healthy bottom switch and retry from there.
		w := r.pickBottom(t, cur, &state)
		if w < 0 {
			return buf, fmt.Errorf("routing: local reroute for %d->%d stuck at top switch %d: no healthy downlink", src, dst, t)
		}
		links = append(links, f.DownLink(t, w))
		cur, lastTop = w, t
	}
	return buf, fmt.Errorf("routing: local reroute for %d->%d exceeded %d top-switch visits", src, dst, r.maxVisits)
}

// PathFor returns AppendPairLinks's route as a Path.
func (r *LocalReroute) PathFor(src, dst int) (topology.Path, error) { return pathOf(r, src, dst) }

// pickTop draws a uniform healthy uplink of bottom switch b, avoiding the
// top the packet just bounced off when another choice exists.
func (r *LocalReroute) pickTop(b, exclude int, state *uint64) int {
	count := 0
	for t := 0; t < r.F.M; t++ {
		if t != exclude && !r.view.TrunkFailed(b, t) {
			count++
		}
	}
	if count == 0 {
		if exclude >= 0 && !r.view.TrunkFailed(b, exclude) {
			return exclude
		}
		return -1
	}
	k := int(splitmix64(state) % uint64(count))
	for t := 0; t < r.F.M; t++ {
		if t != exclude && !r.view.TrunkFailed(b, t) {
			if k == 0 {
				return t
			}
			k--
		}
	}
	return -1
}

// pickBottom draws a uniform healthy downlink of top switch t, avoiding
// an immediate backtrack to the switch the packet came from when another
// choice exists.
func (r *LocalReroute) pickBottom(t, from int, state *uint64) int {
	count := 0
	for w := 0; w < r.F.R; w++ {
		if w != from && !r.view.TrunkFailed(w, t) {
			count++
		}
	}
	if count == 0 {
		if !r.view.TrunkFailed(from, t) {
			return from
		}
		return -1
	}
	k := int(splitmix64(state) % uint64(count))
	for w := 0; w < r.F.R; w++ {
		if w != from && !r.view.TrunkFailed(w, t) {
			if k == 0 {
				return w
			}
			k--
		}
	}
	return -1
}

// Route assigns a deflection path to every SD pair of the pattern.
func (r *LocalReroute) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.F.Net, r, p)
}
