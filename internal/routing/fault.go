package routing

import (
	"fmt"
	"sort"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// This file extends the paper's schemes to degraded networks — failed top
// or bottom switches and trunk cables, given as a topology.FailureView — an
// extension the paper's framework supports naturally and that separates
// the two routing classes sharply:
//
//   - NONBLOCKINGADAPTIVE only needs *some* (c+1)·n healthy top switches
//     per configuration. Renumbering the healthy switches preserves the
//     Class-DIFF structure (the renumbering is one bijection shared by
//     every source switch), so the algorithm stays nonblocking as long as
//     enough healthy switches remain.
//
//   - The Theorem-3 deterministic scheme dedicates top switch (i, j) to
//     the (i, j) traffic class; a failure leaves its class unroutable, and
//     any static remap onto surviving switches merges two classes on one
//     switch, violating Lemma 1 — the scheme is brittle without spare
//     structure. NewSparedDeterministicView shows the fix: provision
//     m = n²+s and remap failed switches onto dedicated spares; it remains
//     nonblocking for up to s failures and blocks beyond.
//
// These global schemes pick one top switch per traffic class for every
// source switch at once, so they only use switches whose entire trunk fan
// is healthy: a top with even one failed cable is excluded via
// view.TopIntact. That conservatism is what lets the resulting paths avoid
// failed links without per-pair link checks. The local-reroute scheme
// (localreroute.go) instead consults link health hop by hop.

// checkPairsAlive rejects patterns that use a detached host (a host whose
// bottom switch failed): no route of any kind exists for such a pair.
func checkPairsAlive(view *topology.FailureView, p *permutation.Permutation) error {
	for _, pr := range p.Pairs() {
		if !view.HostAlive(pr.Src) || !view.HostAlive(pr.Dst) {
			return fmt.Errorf("routing: pair %d->%d uses a detached host (failed bottom switch)", pr.Src, pr.Dst)
		}
	}
	return nil
}

// pairCheckAlive is the per-pair form of checkPairsAlive for PairRouters.
func pairCheckAlive(view *topology.FailureView) func(src, dst int) error {
	return func(src, dst int) error {
		if !view.HostAlive(src) || !view.HostAlive(dst) {
			return fmt.Errorf("routing: pair %d->%d uses a detached host (failed bottom switch)", src, dst)
		}
		return nil
	}
}

// AvoidingAdaptive is NONBLOCKINGADAPTIVE over the intact top switches of
// a failure view: configuration blocks are laid out over those switches in
// ascending order, and a pattern fails when it needs more of them than
// remain.
type AvoidingAdaptive struct {
	ad   *NonblockingAdaptive
	view *topology.FailureView
	// intact lists the view's intact top switches, ascending.
	intact []int
}

// NewAvoidingAdaptive builds the degraded adaptive router for the failure
// view.
func NewAvoidingAdaptive(f *topology.FoldedClos, view *topology.FailureView) (*AvoidingAdaptive, error) {
	ad, err := NewNonblockingAdaptive(f)
	if err != nil {
		return nil, err
	}
	return &AvoidingAdaptive{ad: ad, view: view, intact: view.IntactTops()}, nil
}

// Name returns "adaptive-avoiding".
func (r *AvoidingAdaptive) Name() string { return "adaptive-avoiding" }

// Route plans the pattern and materializes paths over intact top switches
// only.
func (r *AvoidingAdaptive) Route(p *permutation.Permutation) (*Assignment, error) {
	if err := checkPairsAlive(r.view, p); err != nil {
		return nil, err
	}
	tops, pairs, confs, err := r.ad.Plan(p)
	if err != nil {
		return nil, err
	}
	need := confs * (r.ad.C + 1) * r.ad.F.N
	if need > len(r.intact) {
		return nil, fmt.Errorf("routing: pattern needs %d top switches, only %d healthy of m=%d",
			need, len(r.intact), r.ad.F.M)
	}
	return r.ad.assemble(pairs, tops, confs, need, func(t int) int { return r.intact[t] }), nil
}

// SparedDeterministic is the Theorem-3 scheme hardened with spare top
// switches: ftree(n+m, r) with m = n²+s. Traffic class (i, j) normally
// uses top switch i·n+j; when that switch is not intact the class moves,
// whole, to a dedicated spare. Because each class still owns a private top
// switch, Lemma 1 is preserved and the network remains nonblocking for up
// to s simultaneous failures.
type SparedDeterministic struct {
	F *topology.FoldedClos
	// remap[class] is the physical top switch serving the class.
	remap []int
	// view is the failure view the remap was built for; it also rejects
	// pairs whose endpoint host is detached by a bottom-switch failure.
	view *topology.FailureView
}

// NewSparedDeterministicView builds the spared Theorem-3 scheme for a
// failure view: classes whose top switch is not intact move to intact
// spares, and pairs with detached endpoints are rejected. It requires
// m ≥ n² and errors when the failures exhaust the spares (a class would
// have to share a switch, which provably blocks).
func NewSparedDeterministicView(f *topology.FoldedClos, view *topology.FailureView) (*SparedDeterministic, error) {
	n2 := f.N * f.N
	if f.M < n2 {
		return nil, fmt.Errorf("routing: spared scheme needs m >= n² (%d >= %d)", f.M, n2)
	}
	// Spares are the intact switches beyond the first n², ascending.
	intact := view.IntactTops()
	spares := intact[sort.SearchInts(intact, n2):]
	healthySpares := len(spares)
	remap := make([]int, n2)
	for class := range remap {
		if view.TopIntact(class) {
			remap[class] = class
			continue
		}
		if len(spares) == 0 {
			// Report the spares actually available: failed spares don't
			// count, so f.M-n2 would overstate the budget whenever a
			// spare is itself failed.
			return nil, fmt.Errorf("routing: %d failures exceed the %d healthy spare top switches (%d provisioned)",
				f.M-len(intact), healthySpares, f.M-n2)
		}
		remap[class] = spares[0]
		spares = spares[1:]
	}
	return &SparedDeterministic{F: f, remap: remap, view: view}, nil
}

// Name returns "paper-deterministic-spared".
func (r *SparedDeterministic) Name() string { return "paper-deterministic-spared" }

// PathFor routes one SD pair through its class's (possibly remapped) top
// switch.
func (r *SparedDeterministic) PathFor(src, dst int) (topology.Path, error) {
	n := r.F.N
	if src < 0 || src >= r.F.Ports() || dst < 0 || dst >= r.F.Ports() {
		return topology.Path{}, fmt.Errorf("host index out of range: %d or %d", src, dst)
	}
	if !r.view.HostAlive(src) || !r.view.HostAlive(dst) {
		return topology.Path{}, fmt.Errorf("routing: pair %d->%d uses a detached host (failed bottom switch)", src, dst)
	}
	if src == dst {
		return topology.Path{Nodes: []topology.NodeID{topology.NodeID(src)}}, nil
	}
	if src/n == dst/n {
		return r.F.RouteVia(topology.NodeID(src), topology.NodeID(dst), 0), nil
	}
	class := (src%n)*n + dst%n
	return r.F.RouteVia(topology.NodeID(src), topology.NodeID(dst), r.remap[class]), nil
}

// Route assigns a path to every SD pair of the pattern.
func (r *SparedDeterministic) Route(p *permutation.Permutation) (*Assignment, error) {
	return routePairwise(r.F.Net, p, func(s, d int) ([]topology.Path, error) {
		path, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{path}, nil
	})
}

// NewNaiveRemapView is the *broken* failure response the spared scheme
// exists to avoid: fold each class whose switch is not intact onto the
// next intact class switch in cyclic order, sharing it with that switch's
// own class. The result violates Lemma 1 and blocks — the negative control
// every campaign includes, showing why deterministic fault tolerance needs
// dedicated spares. Pairs with detached endpoints are rejected.
func NewNaiveRemapView(f *topology.FoldedClos, view *topology.FailureView) (*FtreeSinglePath, error) {
	n2 := f.N * f.N
	if f.M < n2 {
		return nil, fmt.Errorf("routing: naive remap needs m >= n²")
	}
	intact := view.IntactTops()
	if len(intact) == 0 || intact[0] >= n2 {
		return nil, fmt.Errorf("routing: every class switch failed")
	}
	n := f.N
	return &FtreeSinglePath{
		F:          f,
		RouterName: "paper-deterministic-naive-remap",
		TopChoice: func(src, dst int) int {
			t := (src%n)*n + dst%n
			for !view.TopIntact(t) {
				t = (t + 1) % n2
			}
			return t
		},
		PairCheck: pairCheckAlive(view),
	}, nil
}
