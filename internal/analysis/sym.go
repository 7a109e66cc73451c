package analysis

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Symmetry-reduced exhaustive sweeps. A folded-Clos fabric's host
// relabelings (permutation.BlockSymmetry, the wreath product S_b ≀ S_r of
// within-switch and whole-switch permutations) conjugate permutation
// patterns into orbits along which every contention quantity is constant —
// provided the routing cooperates. The engines here sweep one canonical
// representative per orbit with the CSR delta checker, scale the counters
// by orbit size, and re-derive order-sensitive fields (FirstBlocked) by a
// targeted scan in the full engine's own enumeration order, so the
// SweepResult is byte-identical to the corresponding full sweep wherever
// both can run. When the symmetry argument does not hold — infeasible
// geometry, pattern-dependent routing, or a route table that fails the
// equivariance certificate — they fall back to the full engine, again
// byte-identically.
//
// Soundness rests on a per-pattern load-transport argument: if for a host
// relabeling g there is a link bijection λ with T(g·s, g·d) = λ(T(s, d))
// for every pair, then for any pattern p and its conjugate p' = g∘p∘g⁻¹,
// load_{p'}(λl) = load_p(l) — the load multiset, the maximum load, and
// blockedness are all invariant. Such a λ exists iff the multiset of
// per-link pair neighborhoods {pairs routed over l} is preserved when all
// pairs are relabeled through g, which routeTableEquivariant checks
// exactly, per group generator (the condition composes: λ_{gh} = λ_g∘λ_h,
// so generators suffice). Top-switch permutations never need checking —
// they are link relabelings absorbed into λ itself.

// SymStats reports how a symmetry-reduced sweep executed.
type SymStats struct {
	// Applied is true when the sweep ran over orbit representatives;
	// false when it fell back to the full engine.
	Applied bool
	// Reason explains a fallback (empty when Applied).
	Reason string
	// Orbits counts the representatives tested when Applied.
	Orbits int
	// GroupOrder is |S_b ≀ S_r| when the geometry was feasible.
	GroupOrder int
}

// SymApplicable reports whether a symmetry-reduced sweep would actually
// reduce (geometry feasible, route table cacheable, routing equivariant)
// without running anything. Coordinators call this before planning sym
// shards; the answer is deterministic in (router, hosts, blockSize), so
// identically configured workers always agree with it.
func SymApplicable(r routing.Router, hosts, blockSize int) *SymStats {
	_, _, stats, _ := prepareSym(r, hosts, blockSize)
	return stats
}

// witness re-derives the FirstBlocked witness the unreduced sweep reports:
// in the Parallel merge order (first blocked pattern of the lowest level-1
// prefix shard) or in sequential Heap order. Call it only when the sweep is
// known blocked, so the early-exit scan terminates at the witness. In
// merge order a delta scorer first probes each shard with the pruned walk,
// which stops at the shard's first contended partial pattern, and scans
// for the witness only in the first shard the probe finds blocked.
func (e engine) witness(ctx context.Context, parallelOrder bool) (*permutation.Permutation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var probe SweepResult
	k := e.kernel(ctx, &probe, true, nil)
	if !parallelOrder {
		k.walk(e.hosts, nil, true)
		return probe.FirstBlocked, k.finish()
	}
	prefix := []int{0}
	for shard := 0; shard < e.hosts && !k.cancelled; shard++ {
		prefix[0] = shard
		if k.prunes(e.hosts) {
			probe.Blocked = 0
			if k.count(e.hosts, prefix); probe.Blocked == 0 {
				continue
			}
		}
		if w := k.witness(e.hosts, prefix, false); w != nil {
			return w, nil
		}
	}
	return nil, k.finish()
}

// prepareSym runs the three applicability gates — geometry, route table,
// equivariance — and returns the symmetry group on success. The engine is
// returned either way, so a fallback reuses its route table; on failure
// stats.Reason names the gate and err mirrors it.
func prepareSym(r routing.Router, hosts, blockSize int) (*permutation.BlockSymmetry, engine, *SymStats, error) {
	e := newEngine(r, hosts, allPatterns)
	stats := &SymStats{}
	sym, err := permutation.NewBlockSymmetry(hosts, blockSize) // checks SymFeasible first
	if err != nil {
		stats.Reason = err.Error()
		return nil, e, stats, fmt.Errorf("analysis: symmetry reduction not applicable: %w", err)
	}
	stats.GroupOrder = sym.GroupOrder()
	switch {
	case e.table == nil:
		stats.Reason = fmt.Sprintf("no pattern-independent route table: %v", e.tableErr)
	case !routeTableEquivariant(e.table, sym.Generators()):
		stats.Reason = fmt.Sprintf("routing %q is not equivariant under the block symmetry group", e.table.RouterName())
	default:
		stats.Applied = true
		return sym, e, stats, nil
	}
	return nil, e, stats, fmt.Errorf("analysis: symmetry reduction not applicable: %s", stats.Reason)
}

// orbits runs the kernel over the representatives whose top-level
// necklace index lies in [lo, hi), each weighted by its orbit size, on a
// delta scorer (prepareSym guarantees the table). FirstBlocked is the
// first blocked representative; firstOnly stops at it.
func (e engine) orbits(ctx context.Context, sym *permutation.BlockSymmetry, stats *SymStats, lo, hi int, firstOnly bool, fn ProgressFunc) (*SweepResult, error) {
	res := &SweepResult{}
	k := e.kernel(ctx, res, firstOnly, fn)
	sym.OrbitsRange(lo, hi, func(rep *permutation.Permutation, orbit int) bool {
		k.weight = orbit
		more := k.visit(rep, -1, -1)
		if !k.cancelled {
			stats.Orbits++
		}
		return more
	})
	return res, k.finish()
}

// sweepSym is Sweep for a spec asking for symmetry reduction (SymBlock or
// SymShard set, no Prefix).
func sweepSym(ctx context.Context, r routing.Router, hosts int, s *Spec) (*SweepResult, *SymStats, error) {
	sym, e, stats, err := prepareSym(r, hosts, s.SymBlock)
	if s.SymShard != nil {
		// A coordinator plans sym shards only after proving applicability,
		// so a worker that disagrees is misconfigured and must say so
		// loudly instead of returning counters that mean something else.
		if err != nil {
			return &SweepResult{}, stats, err
		}
		res, err := e.orbits(ctx, sym, stats, s.SymShard[0], s.SymShard[1], false, s.Progress)
		return res, stats, err
	}
	// full runs the unreduced sweep of the caller's shape.
	full := func(fn ProgressFunc) (*SweepResult, error) {
		if s.Parallel {
			return e.parallel(ctx, s.Workers, fn)
		}
		return e.sweep(ctx, nil, true, s.FirstBlocked, fn)
	}
	if !stats.Applied {
		res, err := full(s.Progress)
		return res, stats, err
	}
	res, err := e.orbits(ctx, sym, stats, 0, sym.NecklaceCount(), s.FirstBlocked, s.Progress)
	if err != nil {
		return res, stats, err
	}
	if !s.FirstBlocked && res.Tested != permutation.CountFull(hosts) {
		// Defensive: the orbit enumeration failed to partition the space.
		// The counting property is heavily tested, so this is unreachable,
		// but a wrong certificate must never be served — discard and run
		// the full engine.
		stats.Applied = false
		stats.Reason = fmt.Sprintf("internal orbit-count mismatch: %d != %d!", res.Tested, hosts)
		res, err := full(nil)
		return res, stats, err
	}
	if res.Blocked == 0 {
		return res, stats, nil
	}
	// Blocked: order-sensitive fields come from the full engine's own
	// enumeration order. In FirstBlocked mode the whole result does — the
	// full engine's examined prefix (Tested, MaxLinkLoad) is not derivable
	// from orbits — and the scan early-exits at the first blocked pattern,
	// whose existence the orbit sweep just proved.
	if s.FirstBlocked {
		res, err := full(nil)
		return res, stats, err
	}
	res.FirstBlocked, err = e.witness(ctx, s.Parallel)
	return res, stats, err
}

// routeTableEquivariant checks, for every generator g, that relabeling
// all SD pairs through g permutes the per-link pair neighborhoods — the
// exact condition for a load-transporting link bijection λ_g to exist.
// Neighborhoods are compared as multisets of exact pair-index lists (both
// sides built in ascending pair order, so equal sets compare equally);
// no hashing, no false positives. The lists live in two flat CSR buffers:
// the identity side is built and sorted once, and the relabeled side is
// rebuilt per generator in the other, so the whole certificate costs a
// handful of allocations instead of per-link append churn.
func routeTableEquivariant(t *routing.RouteTable, gens []*permutation.Permutation) bool {
	hosts := t.Hosts()
	numLinks := t.NumLinks()
	fwd := newPairCSR(numLinks, t.Entries())
	rel := newPairCSR(numLinks, t.Entries())
	// Multiset equality of the per-link lists: order both sides' links by
	// list content ((length, lex) on pair indices) and compare position by
	// position.
	fwd.build(t, hosts, nil)
	fwd.sortByContent()
	for _, g := range gens {
		rel.build(t, hosts, g)
		rel.sortByContent()
		for k := 0; k < numLinks; k++ {
			a := fwd.list(fwd.ord[k])
			b := rel.list(rel.ord[k])
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
	}
	return true
}

// pairCSR stores, for every link, the list of pair indices routed over it,
// in one flat buffer with per-link offsets — the reusable scratch behind
// routeTableEquivariant.
type pairCSR struct {
	off  []int32 // off[l]..off[l+1] bounds link l's list in data
	pos  []int32 // fill cursors during build
	data []int32 // pair indices, ascending within each link
	ord  []int   // link indices sorted by list content
}

func newPairCSR(numLinks, entries int) *pairCSR {
	return &pairCSR{
		off:  make([]int32, numLinks+1),
		pos:  make([]int32, numLinks),
		data: make([]int32, entries),
		ord:  make([]int, numLinks),
	}
}

// build fills the CSR with pair index s*hosts+d appended to every link of
// PairLinks(g(s), g(d)) (identity when g is nil), iterating pairs in
// ascending index order so each link's list comes out sorted.
func (c *pairCSR) build(t *routing.RouteTable, hosts int, g *permutation.Permutation) {
	for i := range c.pos {
		c.pos[i] = 0
	}
	forEachPair(t, hosts, g, func(_ int32, links []topology.LinkID) {
		for _, l := range links {
			c.pos[l]++
		}
	})
	c.off[0] = 0
	for l := 0; l < len(c.pos); l++ {
		c.off[l+1] = c.off[l] + c.pos[l]
		c.pos[l] = c.off[l]
	}
	forEachPair(t, hosts, g, func(idx int32, links []topology.LinkID) {
		for _, l := range links {
			c.data[c.pos[l]] = idx
			c.pos[l]++
		}
	})
}

func forEachPair(t *routing.RouteTable, hosts int, g *permutation.Permutation, fn func(idx int32, links []topology.LinkID)) {
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			rs, rd := s, d
			if g != nil {
				rs, rd = g.Dst(s), g.Dst(d)
			}
			fn(int32(s*hosts+d), t.PairLinks(rs, rd))
		}
	}
}

func (c *pairCSR) list(l int) []int32 { return c.data[c.off[l]:c.off[l+1]] }

func (c *pairCSR) sortByContent() {
	for i := range c.ord {
		c.ord[i] = i
	}
	sort.Slice(c.ord, func(i, j int) bool {
		a, b := c.list(c.ord[i]), c.list(c.ord[j])
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
