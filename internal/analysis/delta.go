package analysis

import (
	"slices"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// DeltaChecker is the incremental counterpart of Checker for enumerations
// that step between patterns by swapping two destinations — Heap's
// algorithm (permutation.EnumerateFullSwaps and the per-shard
// EnumerateFullPrefixSeqSwaps) and the adversarial hill climb's pairwise
// swaps. Where Checker.AnalyzePattern re-routes and re-accounts all n
// pairs of every pattern, a DeltaChecker reads precomputed per-pair link
// sets from a routing.RouteTable and, per swap, subtracts the two outgoing
// pairs' links and adds the two incoming pairs' links: O(path length) work
// per pattern instead of O(n · path length), and zero allocations after
// construction.
//
// Maintained invariants (see DESIGN.md "Sweep engine: one scorer, one
// kernel"):
//
//   - load[l] is the number of distinct pairs of the current pattern whose
//     path sets cross link l (per-pair deduplication is baked into the
//     RouteTable spans);
//   - countAt[v] is the number of links with load exactly v, for v ≥ 1;
//   - contended = Σ_{v≥2} countAt[v] and maxLoad = max{v : countAt[v] > 0}
//     are carried across swaps: contended adjusts when a link crosses the
//     load-2 boundary, and maxLoad is re-derived from the countAt
//     histogram only when the previous maximum's witness count drops to
//     zero — which, because loads move by ±1, walks at most one step.
//
// The pruned exhaustive count (kernel.count) drives the same state one pair
// at a time instead: add and remove load and unload a single pair, loads
// only grow as pairs are added, and Swap walks the last few sources in
// Heap order. maxCompletionLoad turns the state of a partial pattern into
// the exact maximum link load over all of its completions.
//
// A DeltaChecker is NOT safe for concurrent use; parallel sweeps give each
// worker its own checker over one shared (immutable) RouteTable.
type DeltaChecker struct {
	t *routing.RouteTable
	// dst mirrors the enumerator's current destination vector; Swap keeps
	// it in lockstep so the checker needs no Permutation on the hot path.
	dst []int
	// load[l] counts pairs crossing link l in the current pattern.
	load []int32
	// countAt[v] counts links at load exactly v (v ≥ 1; unloaded links are
	// untracked). Loads never exceed the pair count, so hosts+2 entries
	// suffice.
	countAt   []int32
	contended int
	maxLoad   int
}

// NewDeltaChecker returns a checker sized for the table's network. Call
// Reset to load an initial pattern before the first Swap.
func NewDeltaChecker(t *routing.RouteTable) *DeltaChecker {
	d := &DeltaChecker{
		t:       t,
		dst:     make([]int, t.Hosts()),
		load:    make([]int32, t.NumLinks()),
		countAt: make([]int32, t.Hosts()+2),
	}
	for i := range d.dst {
		d.dst[i] = permutation.Unused
	}
	return d
}

// Reset rebuilds the state for pattern p from scratch — O(n · path length),
// paid once per enumeration shard or hill-climb restart. p may be partial;
// Unused sources load nothing. p.N() must equal the table's host count.
func (d *DeltaChecker) Reset(p *permutation.Permutation) {
	d.clear()
	for s := range d.dst {
		dt := p.Dst(s)
		d.dst[s] = dt
		d.add(s, dt)
	}
}

// resetPrefix is Reset for the partial pattern in which sources
// 0..len(prefix)−1 send to prefix and every other source is Unused.
func (d *DeltaChecker) resetPrefix(prefix []int) {
	d.clear()
	for s := range d.dst {
		d.dst[s] = permutation.Unused
	}
	for s, dt := range prefix {
		d.dst[s] = dt
		d.add(s, dt)
	}
}

func (d *DeltaChecker) clear() {
	for i := range d.load {
		d.load[i] = 0
	}
	for i := range d.countAt {
		d.countAt[i] = 0
	}
	d.contended, d.maxLoad = 0, 0
}

// add loads every link of pair (s, dt); dt < 0 (Unused) loads nothing.
func (d *DeltaChecker) add(s, dt int) {
	if dt < 0 {
		return
	}
	for _, l := range d.t.PairLinks(s, dt) {
		v := d.load[l] + 1
		d.load[l] = v
		if v > 1 {
			d.countAt[v-1]--
		}
		d.countAt[v]++
		if int(v) > d.maxLoad {
			d.maxLoad = int(v)
		}
		if v == 2 {
			d.contended++
		}
	}
}

// remove unloads every link of pair (s, dt); dt < 0 (Unused) is a no-op.
func (d *DeltaChecker) remove(s, dt int) {
	if dt < 0 {
		return
	}
	for _, l := range d.t.PairLinks(s, dt) {
		v := d.load[l]
		d.load[l] = v - 1
		d.countAt[v]--
		if v > 1 {
			d.countAt[v-1]++
		}
		if v == 2 {
			d.contended--
		}
		if int(v) == d.maxLoad && d.countAt[v] == 0 {
			// The decremented link now sits at v−1, so the maximum drops
			// exactly one step unless the network just went idle.
			m := d.maxLoad - 1
			for m > 0 && d.countAt[m] == 0 {
				m--
			}
			d.maxLoad = m
		}
	}
}

// Swap exchanges the destinations of sources i and j — the Heap/hill-climb
// step — updating per-link state for the at most four affected pairs. It
// must mirror the enumerator's swaps exactly (same positions, same order).
// Swap is its own inverse, which is what lets the adversarial search
// score a candidate and back it out in O(path length). i == j is a no-op.
func (d *DeltaChecker) Swap(i, j int) {
	if i == j {
		return
	}
	di, dj := d.dst[i], d.dst[j]
	d.remove(i, di)
	d.remove(j, dj)
	d.dst[i], d.dst[j] = dj, di
	d.add(i, dj)
	d.add(j, di)
}

// MaxLoad is the largest number of pairs sharing one link in the current
// pattern.
func (d *DeltaChecker) MaxLoad() int { return d.maxLoad }

// ContendedCount is the number of links carrying two or more pairs.
func (d *DeltaChecker) ContendedCount() int { return d.contended }

// maxCompletionLoad is the largest load that any completion of the current
// partial pattern puts on one link, or best if that is larger. A
// completion sends the free sources from..n−1 to the destinations that
// used leaves unmarked, in any bijection. By the argument of
// WorstCaseLinkLoad, applied to the free pairs, its worst load on link l
// is the partial pattern's load[l] plus a maximum matching among the free
// pairs whose span crosses l: any such matching extends to a completion,
// since the free sources and destinations it leaves over pair up in any
// way. A link whose load plus free-source count cannot beat best is
// skipped. m must be sized for the table's host count.
func (d *DeltaChecker) maxCompletionLoad(from int, used []bool, m *matching, best int) int {
	n := len(d.dst)
	for l := range d.load {
		base := int(d.load[l])
		if base+n-from <= best {
			continue
		}
		m.adj, m.off = m.adj[:0], m.off[:0]
		for s := from; s < n; s++ {
			m.off = append(m.off, int32(len(m.adj)))
			for dt, u := range used {
				if !u && slices.Contains(d.t.PairLinks(s, dt), topology.LinkID(l)) {
					m.adj = append(m.adj, int32(dt))
				}
			}
		}
		m.off = append(m.off, int32(len(m.adj)))
		best = max(best, base+m.size())
	}
	return best
}
