package analysis

import (
	"slices"

	"repro/internal/permutation"
	"repro/internal/routing"
)

// DeltaChecker is the incremental counterpart of Checker for enumerations
// that step between patterns by swapping two destinations — Heap's
// algorithm (permutation.EnumerateFullSwaps and the per-shard
// EnumerateFullPrefixSeqSwaps) and the adversarial hill climb's pairwise
// swaps. Where Checker.AnalyzePattern re-routes and re-accounts all n
// pairs of every pattern, a DeltaChecker reads precomputed per-pair spans
// from a routing.RouteTable and, per swap, unloads the two outgoing pairs
// and loads the two incoming ones: O(span length) work per pattern instead
// of O(n · path length), and zero allocations after construction.
//
// The spans it loads are the table's Lemma-1 quotient
// (routing.RouteTable.ClassSpans): a link whose pair set is a Lemma-1 star never carries two
// pairs of one permutation and is dropped, and links with equal pair sets
// are one class, weighted by its link count. Every counter keeps its
// link-level meaning.
//
// Maintained invariants (see DESIGN.md "Sweep engine: one scorer, one
// kernel"):
//
//   - load[c] is the number of distinct pairs of the current pattern whose
//     path sets cross the links of class c — every link of the class
//     carries exactly that load;
//   - countAt[v] is the number of classes with load exactly v, for v ≥ 1;
//   - contended is the number of links with load ≥ 2: the sum of the
//     weights of the classes at load ≥ 2, adjusted when a class crosses
//     the load-2 boundary (dropped links never reach it);
//   - maxLoad = max{v : countAt[v] > 0} is carried across swaps and
//     re-derived from the countAt histogram only when the previous
//     maximum's witness count drops to zero — which, because loads move by
//     ±1, walks at most one step. While it is 0, every loaded link is a
//     dropped one, and MaxLoad reads 1 if any current pair crosses a link.
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
	// offs, classes and weights are t's class spans (ClassSpans), held
	// here so the hot path reads them without going through t.
	offs, classes, weights []int32
	// dst mirrors the enumerator's current destination vector; Swap keeps
	// it in lockstep so the checker needs no Permutation on the hot path.
	dst []int32
	// load[c] counts pairs crossing class c in the current pattern.
	load []int32
	// countAt[v] counts classes at load exactly v (v ≥ 1; unloaded
	// classes are untracked). Loads never exceed the pair count, so
	// hosts+2 entries suffice.
	countAt   []int32
	contended int
	maxLoad   int
}

// NewDeltaChecker returns a checker sized for the table's network. Call
// Reset to load an initial pattern before the first Swap.
func NewDeltaChecker(t *routing.RouteTable) *DeltaChecker {
	d := newDeltaChecker(t)
	return &d
}

// newDeltaChecker is NewDeltaChecker by value, for scorers that embed the
// checker.
func newDeltaChecker(t *routing.RouteTable) DeltaChecker {
	n := t.Hosts()
	offs, classes, weights := t.ClassSpans()
	// One allocation carved three ways.
	buf := make([]int32, n+len(weights)+n+2)
	d := DeltaChecker{
		t:       t,
		offs:    offs,
		classes: classes,
		weights: weights,
		dst:     buf[:n],
		load:    buf[n : n+len(weights)],
		countAt: buf[n+len(weights):],
	}
	for i := range d.dst {
		d.dst[i] = permutation.Unused
	}
	return d
}

// Reset rebuilds the state for pattern p from scratch — O(n · span length),
// paid once per enumeration shard or hill-climb restart. p may be partial;
// Unused sources load nothing. p.N() must equal the table's host count.
func (d *DeltaChecker) Reset(p *permutation.Permutation) {
	d.clear()
	for s := range d.dst {
		dt := p.Dst(s)
		d.dst[s] = int32(dt)
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
		d.dst[s] = int32(dt)
		d.add(s, dt)
	}
}

func (d *DeltaChecker) clear() {
	clear(d.load)
	clear(d.countAt)
	d.contended, d.maxLoad = 0, 0
}

// span returns pair (s, dt)'s class span.
func (d *DeltaChecker) span(s, dt int) []int32 {
	if d.offs == nil {
		return nil
	}
	i := s*len(d.dst) + dt
	return d.classes[d.offs[i]:d.offs[i+1]]
}

// add loads every class of pair (s, dt); dt < 0 (Unused) loads nothing.
func (d *DeltaChecker) add(s, dt int) {
	if dt < 0 {
		return
	}
	for _, c := range d.span(s, dt) {
		v := d.load[c] + 1
		d.load[c] = v
		if v > 1 {
			d.countAt[v-1]--
		}
		d.countAt[v]++
		if int(v) > d.maxLoad {
			d.maxLoad = int(v)
		}
		if v == 2 {
			d.contended += int(d.weights[c])
		}
	}
}

// remove unloads every class of pair (s, dt); dt < 0 (Unused) is a no-op.
func (d *DeltaChecker) remove(s, dt int) {
	if dt < 0 {
		return
	}
	for _, c := range d.span(s, dt) {
		v := d.load[c]
		d.load[c] = v - 1
		d.countAt[v]--
		if v > 1 {
			d.countAt[v-1]++
		}
		if v == 2 {
			d.contended -= int(d.weights[c])
		}
		if int(v) == d.maxLoad && d.countAt[v] == 0 {
			// The decremented class now sits at v−1, so the maximum drops
			// exactly one step unless every class just went idle.
			m := d.maxLoad - 1
			for m > 0 && d.countAt[m] == 0 {
				m--
			}
			d.maxLoad = m
		}
	}
}

// Swap exchanges the destinations of sources i and j — the Heap/hill-climb
// step — updating the per-class state for the at most four affected pairs.
// It must mirror the enumerator's swaps exactly (same positions, same
// order). Swap is its own inverse, which is what lets the adversarial
// search score a candidate and back it out in O(span length). i == j is a
// no-op.
func (d *DeltaChecker) Swap(i, j int) {
	if i == j {
		return
	}
	di, dj := d.dst[i], d.dst[j]
	d.remove(i, int(di))
	d.remove(j, int(dj))
	d.dst[i], d.dst[j] = dj, di
	d.add(i, int(dj))
	d.add(j, int(di))
}

// MaxLoad is the largest number of pairs sharing one link in the current
// pattern: the largest class load or, while no class is loaded, 1 if a
// current pair crosses any link, since dropped links carry one pair at
// most. That scan stops at the first such pair, in practice the first or
// second source.
func (d *DeltaChecker) MaxLoad() int {
	if d.maxLoad > 0 {
		return d.maxLoad
	}
	for s, dt := range d.dst {
		if dt >= 0 && len(d.t.PairLinks(s, int(dt))) > 0 {
			return 1
		}
	}
	return 0
}

// ContendedCount is the number of links carrying two or more pairs.
func (d *DeltaChecker) ContendedCount() int { return d.contended }

// maxCompletionLoad is the largest load that any completion of the current
// partial pattern puts on one link, or best if that is larger. A
// completion sends the free sources from..n−1 to the destinations that
// used leaves unmarked, in any bijection. By the argument of
// WorstCaseLinkLoad, applied to the free pairs, its worst load on class c
// is the partial pattern's load[c] plus a maximum matching among the free
// pairs whose class span crosses c: any such matching extends to a
// completion, since the free sources and destinations it leaves over pair
// up in any way. A class whose load plus free-source count cannot beat
// best is skipped. Dropped links are not scanned: they carry one pair at
// most, and the pruned walk calls this only after a contended partial
// pattern, so some class reaches 2. m must be sized for the table's host
// count.
func (d *DeltaChecker) maxCompletionLoad(from int, used []bool, m *matching, best int) int {
	n := len(d.dst)
	for c := range d.load {
		base := int(d.load[c])
		if base+n-from <= best {
			continue
		}
		m.adj, m.off = m.adj[:0], m.off[:0]
		for s := from; s < n; s++ {
			m.off = append(m.off, int32(len(m.adj)))
			for dt, u := range used {
				if !u && slices.Contains(d.span(s, dt), int32(c)) {
					m.adj = append(m.adj, int32(dt))
				}
			}
		}
		m.off = append(m.off, int32(len(m.adj)))
		best = max(best, base+m.size())
	}
	return best
}
