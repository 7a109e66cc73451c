package topology

import (
	"fmt"
	"sort"
)

// This file models degraded ftree(n+m, r) fabrics. A FailureSet names the
// failed elements; a FailureView binds one to a concrete FoldedClos and
// answers O(1) health queries for links, nodes and whole paths.
//
// Invariants (see DESIGN.md):
//
//   - Failures are whole-element: a failed switch takes every incident
//     link with it, and a failed trunk cable takes both directions of the
//     duplex pair. There is no half-duplex failure mode — the paper's
//     duplex-cable model (§III) makes a one-direction failure
//     indistinguishable from a cable failure at the routing layer.
//   - A failed bottom switch detaches its n hosts: patterns over a
//     degraded fabric may only use alive hosts (AliveHosts), and every
//     fault-aware router errors on a pair whose endpoint is detached.
//   - Normalize is idempotent and View normalizes first, so two
//     FailureSets naming the same physical damage (in any order, with
//     duplicates, or listing trunks already implied by a failed switch)
//     produce identical views and identical canonical Keys.
type FailureSet struct {
	// Tops lists failed top-level switch indices (0..m−1).
	Tops []int `json:"tops,omitempty"`
	// Bottoms lists failed bottom-level switch indices (0..r−1); the
	// switch's hosts are detached with it (whole-pod loss).
	Bottoms []int `json:"bottoms,omitempty"`
	// Trunks lists failed bottom↔top duplex cables.
	Trunks []Trunk `json:"trunks,omitempty"`
}

// Trunk identifies the duplex cable between bottom switch Bottom and top
// switch Top.
type Trunk struct {
	Bottom int `json:"bottom"`
	Top    int `json:"top"`
}

// Validate checks every named element against the fabric's ranges.
func (fs *FailureSet) Validate(f *FoldedClos) error {
	for _, t := range fs.Tops {
		if t < 0 || t >= f.M {
			return fmt.Errorf("topology: failed top switch %d out of range [0,%d)", t, f.M)
		}
	}
	for _, v := range fs.Bottoms {
		if v < 0 || v >= f.R {
			return fmt.Errorf("topology: failed bottom switch %d out of range [0,%d)", v, f.R)
		}
	}
	for _, tr := range fs.Trunks {
		if tr.Bottom < 0 || tr.Bottom >= f.R || tr.Top < 0 || tr.Top >= f.M {
			return fmt.Errorf("topology: failed trunk (%d,%d) out of range ftree r=%d m=%d", tr.Bottom, tr.Top, f.R, f.M)
		}
	}
	return nil
}

// normalized returns a sorted, deduplicated copy with trunks implied by a
// failed endpoint switch removed.
func (fs *FailureSet) normalized() FailureSet {
	var out FailureSet
	out.Tops = dedupInts(fs.Tops)
	out.Bottoms = dedupInts(fs.Bottoms)
	if len(fs.Trunks) > 0 {
		topDown := intSet(out.Tops)
		botDown := intSet(out.Bottoms)
		seen := make(map[Trunk]bool, len(fs.Trunks))
		for _, tr := range fs.Trunks {
			if topDown[tr.Top] || botDown[tr.Bottom] || seen[tr] {
				continue
			}
			seen[tr] = true
			out.Trunks = append(out.Trunks, tr)
		}
		sort.Slice(out.Trunks, func(i, j int) bool {
			if out.Trunks[i].Bottom != out.Trunks[j].Bottom {
				return out.Trunks[i].Bottom < out.Trunks[j].Bottom
			}
			return out.Trunks[i].Top < out.Trunks[j].Top
		})
	}
	return out
}

// Normalize sorts and deduplicates the set in place and drops trunks
// already implied by a failed endpoint switch.
func (fs *FailureSet) Normalize() { *fs = fs.normalized() }

func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	cp := append([]int(nil), xs...)
	sort.Ints(cp)
	out := cp[:1]
	for _, x := range cp[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func intSet(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// FailureView is a FailureSet bound to a FoldedClos with O(1) health
// lookups. Trunk health subsumes switch health: TrunkFailed(v, t) is true
// when the cable itself failed OR either endpoint switch failed, so local
// link-health knowledge at a switch is enough to avoid failed switches —
// the locality assumption behind local fast rerouting.
type FailureView struct {
	F *FoldedClos

	set        FailureSet // normalized copy
	topDown    []bool     // len m
	bottomDown []bool     // len r
	trunkDown  []bool     // len r*m, index v*m+t
	topIntact  []bool     // len m: switch alive and ALL incident trunks healthy
	alive      int        // alive host count
}

// View normalizes and validates the set against f and builds the lookup
// tables.
func (fs FailureSet) View(f *FoldedClos) (*FailureView, error) {
	if err := fs.Validate(f); err != nil {
		return nil, err
	}
	n := fs.normalized()
	v := &FailureView{
		F:          f,
		set:        n,
		topDown:    make([]bool, f.M),
		bottomDown: make([]bool, f.R),
		trunkDown:  make([]bool, f.R*f.M),
		topIntact:  make([]bool, f.M),
	}
	for _, t := range n.Tops {
		v.topDown[t] = true
	}
	for _, b := range n.Bottoms {
		v.bottomDown[b] = true
	}
	for _, tr := range n.Trunks {
		v.trunkDown[tr.Bottom*f.M+tr.Top] = true
	}
	for b := 0; b < f.R; b++ {
		if v.bottomDown[b] {
			for t := 0; t < f.M; t++ {
				v.trunkDown[b*f.M+t] = true
			}
		}
	}
	for t := 0; t < f.M; t++ {
		if v.topDown[t] {
			for b := 0; b < f.R; b++ {
				v.trunkDown[b*f.M+t] = true
			}
		}
	}
	for t := 0; t < f.M; t++ {
		// Trunks to failed bottom switches don't count against a top:
		// no surviving pair can traverse them anyway.
		intact := !v.topDown[t]
		for b := 0; intact && b < f.R; b++ {
			if !v.bottomDown[b] && v.trunkDown[b*f.M+t] {
				intact = false
			}
		}
		v.topIntact[t] = intact
	}
	v.alive = 0
	for b := 0; b < f.R; b++ {
		if !v.bottomDown[b] {
			v.alive += f.N
		}
	}
	return v, nil
}

// TrunkFailed reports whether the duplex trunk between bottom b and top t
// is unusable (cable failed or either endpoint switch failed).
func (v *FailureView) TrunkFailed(b, t int) bool { return v.trunkDown[b*v.F.M+t] }

// TopIntact reports whether top switch t is alive with every trunk to a
// surviving bottom switch healthy — the condition for a global scheme to
// assign the switch to a traffic class without inspecting per-pair links.
func (v *FailureView) TopIntact(t int) bool { return v.topIntact[t] }

// IntactTops returns the indices of fully intact top switches, ascending.
func (v *FailureView) IntactTops() []int {
	out := make([]int, 0, v.F.M)
	for t := 0; t < v.F.M; t++ {
		if v.topIntact[t] {
			out = append(out, t)
		}
	}
	return out
}

// HostAlive reports whether host h (paper leaf numbering) is attached.
func (v *FailureView) HostAlive(h int) bool {
	return h >= 0 && h < v.F.Ports() && !v.bottomDown[h/v.F.N]
}

// AliveHosts returns all attached host indices, ascending.
func (v *FailureView) AliveHosts() []int {
	out := make([]int, 0, v.alive)
	for b := 0; b < v.F.R; b++ {
		if v.bottomDown[b] {
			continue
		}
		for k := 0; k < v.F.N; k++ {
			out = append(out, b*v.F.N+k)
		}
	}
	return out
}

// NodeFailed reports whether node id is failed (hosts fail with their
// bottom switch).
func (v *FailureView) NodeFailed(id NodeID) bool {
	f := v.F
	switch {
	case id < f.bottomBase:
		return v.bottomDown[int(id)/f.N]
	case id < f.topBase:
		return v.bottomDown[int(id-f.bottomBase)]
	default:
		return v.topDown[int(id-f.topBase)]
	}
}

// LinkFailed reports whether directed link id is unusable.
func (v *FailureView) LinkFailed(id LinkID) bool {
	f := v.F
	if id < f.trunkBase {
		// Host link: fails with the bottom switch.
		return v.bottomDown[int(id-f.hostLinkBase)/2/f.N]
	}
	return v.trunkDown[int(id-f.trunkBase)/2]
}

// PathHealthy reports whether p traverses no failed link or node: each
// link, and both of its end nodes, must be up.
func (v *FailureView) PathHealthy(p Path) bool {
	for _, l := range p.Links {
		lk := v.F.Net.Link(l)
		if v.LinkFailed(l) || v.NodeFailed(lk.From) || v.NodeFailed(lk.To) {
			return false
		}
	}
	return true
}
