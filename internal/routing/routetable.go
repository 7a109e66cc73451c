package routing

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// ErrPatternDependent is returned by BuildRouteTable for routers whose
// per-pair paths may depend on the traffic pattern (adaptive, global
// rearrangeable): their link sets cannot be precomputed per pair, so
// verification must route every pattern from scratch.
var ErrPatternDependent = errors.New("routing: per-pair link sets are pattern-dependent and cannot be cached")

// ErrRouteTableTooLarge is returned (wrapped) by BuildRouteTable when the
// table would exceed its memory budget: more than maxRouteTablePairs SD
// pairs, refused before anything is allocated or routed, or more than
// maxRouteTableEntries (pair, link) incidences, refused as soon as the
// build reaches that count. Callers fall back to the per-pattern scratch
// engines exactly as they do for pattern-dependent routers, so a request
// on a huge fabric costs time, never memory it cannot get.
var ErrRouteTableTooLarge = errors.New("routing: route table exceeds its memory budget")

// The route table budget. hosts² int32 offsets plus the int32 entries: at
// most 8 MiB + 32 MiB, and a table for up to 1,448 hosts. Both stay far
// below the int32 offset range. Variables so tests can trip the guards on
// small tables.
var (
	maxRouteTablePairs   = 1 << 21
	maxRouteTableEntries = 1 << 23
)

// routeTablePairsError is the pair-budget refusal: one allocation, and
// formatted only when read.
type routeTablePairsError struct{ hosts, budget int }

func (e *routeTablePairsError) Error() string {
	return fmt.Sprintf("routing: %d hosts: %d pairs exceed the budget of %d: %v",
		e.hosts, e.hosts*e.hosts, e.budget, ErrRouteTableTooLarge)
}

func (e *routeTablePairsError) Unwrap() error { return ErrRouteTableTooLarge }

// routeTableStartEpoch is the dedup scratch's initial generation counter —
// always zero outside tests, which raise it to force an epoch wrap within
// a small build.
var routeTableStartEpoch uint32

// RouteTable is a precomputed all-pairs link-set cache in CSR layout: one
// flat backing array of link IDs plus an offsets array indexed by
// src*hosts+dst, so the link set of any SD pair is a zero-allocation slice
// view obtained with two array reads and no routing work. It is the route
// layer of the incremental (delta) verification engine: exhaustive sweeps
// route each of the n×(n−1) pairs exactly once at table-build time instead
// of once per permutation.
//
// Per-pair lists are deduplicated at build time (a multipath set may cross
// the same link on several paths, but contention accounting loads each
// link once per pair — the §IV.B rule), so consumers may add and subtract
// span entries as ±1 load updates without epoch marks. Entry order is
// first-occurrence order of the underlying router's link stream.
//
// The table also holds its Lemma-1 quotient (conflicts.go): the links
// that can carry two pairs of one permutation, grouped into classes of
// equal pair sets, and each pair's span over those classes. The delta
// engine loads classes; the symmetry certificate reads link spans.
//
// A RouteTable is immutable after construction and therefore safe for
// concurrent readers; parallel sweeps share one table across workers.
type RouteTable struct {
	hosts int
	// offs[s*hosts+d] .. offs[s*hosts+d+1] delimit pair (s, d)'s span in
	// links. Self-pairs and intra-host pairs occupy empty spans.
	offs     []int32
	links    []topology.LinkID
	numLinks int
	name     string
	// classOffs[s*hosts+d] .. classOffs[s*hosts+d+1] delimit pair (s, d)'s
	// class span in classes; weights[c] is class c's link count and
	// linkClass[l] link l's class plus one (0: dropped). All nil when the
	// table has no conflict class.
	classOffs, classes, weights []int32
	linkClass                   []uint32
}

// BuildRouteTable precomputes every SD pair's deduplicated link set for a
// router with pattern-independent paths: a PairLinkAppender. It returns
// ErrPatternDependent for any other router, a wrapped ErrRouteTableTooLarge
// past the memory budget, and the first per-pair routing failure, in
// ascending (src, dst) order, wrapped exactly as the routing layer wraps
// it ("routing pair s->d: ...").
func BuildRouteTable(r Router, hosts int) (*RouteTable, error) {
	if hosts < 0 {
		return nil, fmt.Errorf("routing: negative host count %d", hosts)
	}
	la, ok := r.(PairLinkAppender)
	if !ok {
		return nil, ErrPatternDependent
	}
	if hosts > 0 && hosts > maxRouteTablePairs/hosts {
		return nil, &routeTablePairsError{hosts: hosts, budget: maxRouteTablePairs}
	}
	t := &RouteTable{
		hosts: hosts,
		offs:  make([]int32, hosts*hosts+1),
		// Two-level routes load at most four links per pair.
		links: make([]topology.LinkID, 0, min(hosts*hosts*4, maxRouteTableEntries)),
		name:  r.Name(),
	}
	// Room for a multipath set's raw links, duplicates included.
	buf := make([]topology.LinkID, 0, 64)
	var err error
	dedup := linkDedup{epoch: routeTableStartEpoch}
	idx := 0
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			buf, err = la.AppendPairLinks(s, d, buf[:0])
			if err != nil {
				return nil, fmt.Errorf("routing pair %d->%d: %w", s, d, err)
			}
			// Deduplicate in place, so the budget check below sees the
			// pair's exact entry count before the table grows.
			dedup.nextPair()
			kept := buf[:0]
			for _, l := range buf {
				if l < 0 {
					return nil, fmt.Errorf("routing pair %d->%d: invalid link id %d", s, d, l)
				}
				if dedup.firstSight(l) {
					kept = append(kept, l)
					t.numLinks = max(t.numLinks, int(l)+1)
				}
			}
			if len(t.links)+len(kept) > maxRouteTableEntries {
				return nil, fmt.Errorf("routing pair %d->%d: %d entries: %w",
					s, d, len(t.links)+len(kept), ErrRouteTableTooLarge)
			}
			t.links = append(t.links, kept...)
			idx++
			t.offs[idx] = int32(len(t.links))
		}
	}
	t.buildClasses(dedup.seen)
	return t, nil
}

// linkDedup is the per-pair link-deduplication scratch: seen[l] == epoch
// marks link l as already present in the current pair's span, so starting
// a new pair is one counter increment instead of clearing the slice.
type linkDedup struct {
	seen  []uint32
	epoch uint32
}

// nextPair opens a fresh dedup generation. When the epoch counter wraps at
// 2^32 the zero value would alias every never-seen entry (and any entry
// last marked exactly 2^32 pairs ago), so the scratch is cleared and the
// epoch restarts at 1 — the same state as a fresh scratch.
func (d *linkDedup) nextPair() {
	d.epoch++
	if d.epoch == 0 {
		for i := range d.seen {
			d.seen[i] = 0
		}
		d.epoch = 1
	}
}

// firstSight marks link l in the current generation and reports whether
// this is its first occurrence within the pair. l must be non-negative.
func (d *linkDedup) firstSight(l topology.LinkID) bool {
	if int(l) >= len(d.seen) {
		// Grow geometrically: link IDs arrive roughly ascending, and
		// growing to exactly l+1 would copy the array once per new link.
		d.seen = append(d.seen, make([]uint32, int(l)+1-len(d.seen))...)
	}
	if d.seen[l] == d.epoch {
		return false
	}
	d.seen[l] = d.epoch
	return true
}

// Hosts reports the endpoint count the table was built for.
func (t *RouteTable) Hosts() int { return t.hosts }

// NumLinks is one past the largest link ID any pair references — the size
// consumers need for flat per-link state (zero when no pair crosses any
// link).
func (t *RouteTable) NumLinks() int { return t.numLinks }

// RouterName identifies the routing scheme the table caches.
func (t *RouteTable) RouterName() string { return t.name }

// Entries reports the total number of (pair, link) incidences stored.
func (t *RouteTable) Entries() int { return len(t.links) }

// PairLinks returns pair (src, dst)'s deduplicated link set as a view into
// the shared backing array. The slice must not be modified. Indices are
// unchecked beyond the usual slice bounds: both must be in [0, Hosts()).
func (t *RouteTable) PairLinks(src, dst int) []topology.LinkID {
	i := src*t.hosts + dst
	return t.links[t.offs[i]:t.offs[i+1]]
}
