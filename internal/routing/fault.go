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
	for s, n := 0, p.N(); s < n; s++ {
		if d := p.Dst(s); d != permutation.Unused && (!view.HostAlive(s) || !view.HostAlive(d)) {
			return fmt.Errorf("routing: pair %d->%d uses a detached host (failed bottom switch)", s, d)
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
// remain. AppendPatternLinks lays out the links, for scoring many patterns
// cheaply; Route cuts the same links into paths.
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
	var s PlanScratch // the Assignment keeps the pairs
	confs, need, err := r.plan(&s, p)
	if err != nil {
		return nil, err
	}
	return r.ad.assignPlan(s.pairs, s.tops, r.intact, confs, need), nil
}

// AppendPatternLinks implements PatternLinkAppender: the links Route's
// paths would carry, laid out per pair over the same intact switches, with
// Route's errors.
func (r *AvoidingAdaptive) AppendPatternLinks(p *permutation.Permutation, links []topology.LinkID, ends []int, s *PlanScratch) ([]topology.LinkID, []int, error) {
	if _, _, err := r.plan(s, p); err != nil {
		return links, ends, err
	}
	links, ends = r.ad.appendPlanLinks(s.pairs, s.tops, r.intact, links, ends)
	return links, ends, nil
}

// plan rejects detached endpoints, runs Plan into s, and checks that the
// configurations fit on the intact switches.
func (r *AvoidingAdaptive) plan(s *PlanScratch, p *permutation.Permutation) (confs, need int, err error) {
	if err := checkPairsAlive(r.view, p); err != nil {
		return 0, 0, err
	}
	if confs, err = r.ad.planInto(s, p); err != nil {
		return 0, 0, err
	}
	need = confs * (r.ad.C + 1) * r.ad.F.N
	if need > len(r.intact) {
		return 0, 0, fmt.Errorf("routing: pattern needs %d top switches, only %d healthy of m=%d",
			need, len(r.intact), r.ad.F.M)
	}
	return confs, need, nil
}

// NewSparedDeterministicView builds the Theorem-3 scheme hardened with
// spare top switches for a failure view: ftree(n+m, r) with m = n²+s.
// Traffic class (i, j) normally uses top switch i·n+j; when that switch is
// not intact the class moves, whole, to a dedicated intact spare. Because
// each class still owns a private top switch, Lemma 1 is preserved and the
// network remains nonblocking for up to s simultaneous failures. Pairs
// with detached endpoints are rejected. It requires m ≥ n² and errors when
// the failures exhaust the spares (a class would have to share a switch,
// which provably blocks).
//
// The result is an FtreeSinglePath whose TopChoice is the spare remap (as
// NewNaiveRemapView's is the naive fold), so it shares the one
// AppendPairLinks body, and PathFor and Route over it, with every other
// single-path scheme.
func NewSparedDeterministicView(f *topology.FoldedClos, view *topology.FailureView) (*FtreeSinglePath, error) {
	n2 := f.N * f.N
	if f.M < n2 {
		return nil, fmt.Errorf("routing: spared scheme needs m >= n² (%d >= %d)", f.M, n2)
	}
	// Spares are the intact switches beyond the first n², ascending.
	intact := view.IntactTops()
	spares := intact[sort.SearchInts(intact, n2):]
	healthySpares := len(spares)
	// remap[class] is the physical top switch serving the class.
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
	n := f.N
	return &FtreeSinglePath{
		F:          f,
		RouterName: "paper-deterministic-spared",
		TopChoice:  func(src, dst int) int { return remap[(src%n)*n+dst%n] },
		PairCheck:  pairCheckAlive(view),
	}, nil
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
