package topology

import (
	"fmt"
)
import "testing"

func TestMultiFtreeMatchesClosedForms(t *testing.T) {
	cases := []struct{ n, levels, ports, switches int }{
		{2, 2, 12, 10},   // ftree(2+4,6): n³+n² = 12 hosts, 2n²+n = 10
		{3, 2, 36, 21},   // 2n²+n = 21
		{4, 2, 80, 36},   // Table I row 1
		{2, 3, 24, 52},   // matches ThreeLevelFtree
		{3, 3, 108, 225}, // matches ThreeLevelFtree
		{2, 4, 48, 232},  // S(4) = n⁴+n³ + n²·S(3)
	}
	for _, c := range cases {
		m := NewMultiFtree(c.n, c.levels)
		if m.Ports() != c.ports {
			t.Errorf("ftree%d(n=%d): ports %d, want %d", c.levels, c.n, m.Ports(), c.ports)
		}
		if m.Switches() != c.switches {
			t.Errorf("ftree%d(n=%d): switches %d, want %d", c.levels, c.n, m.Switches(), c.switches)
		}
		if m.Switches() != ExpectedSwitches(c.n, c.levels) {
			t.Errorf("ftree%d(n=%d): recursion formula mismatch", c.levels, c.n)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("ftree%d(n=%d): %v", c.levels, c.n, err)
		}
	}
}

func TestMultiFtreeAgreesWithThreeLevelFtree(t *testing.T) {
	// The generic builder and the explicit 3-level builder must produce
	// networks of identical size and switch radix.
	for _, n := range []int{2, 3} {
		generic := NewMultiFtree(n, 3)
		explicit := NewThreeLevelFtree(n, n*n*n+n*n)
		if generic.Ports() != explicit.Ports() {
			t.Errorf("n=%d: ports %d vs %d", n, generic.Ports(), explicit.Ports())
		}
		if generic.Switches() != explicit.Switches() {
			t.Errorf("n=%d: switches %d vs %d", n, generic.Switches(), explicit.Switches())
		}
		if generic.Net.NumLinks() != explicit.Net.NumLinks() {
			t.Errorf("n=%d: links %d vs %d", n, generic.Net.NumLinks(), explicit.Net.NumLinks())
		}
	}
}

func TestMultiFtreeRoutesAllPairs(t *testing.T) {
	for _, c := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {2, 4}} {
		m := NewMultiFtree(c[0], c[1])
		for s := 0; s < m.Ports(); s++ {
			for d := 0; d < m.Ports(); d++ {
				if s == d {
					continue
				}
				p := m.Route(m.HostID(s), m.HostID(d))
				if !p.Valid(m.Net) {
					t.Fatalf("ftree%d(n=%d): invalid path %d->%d", c[1], c[0], s, d)
				}
				if p.Nodes[0] != NodeID(s) || p.Nodes[len(p.Nodes)-1] != NodeID(d) {
					t.Fatalf("endpoints wrong for %d->%d", s, d)
				}
				// Path length: 2 hops per level crossed, up to 2·levels.
				if p.Len() > 2*c[1] {
					t.Fatalf("path %d->%d length %d exceeds 2·levels=%d", s, d, p.Len(), 2*c[1])
				}
			}
		}
	}
}

func TestMultiFtreePathDepthsByLocality(t *testing.T) {
	m := NewMultiFtree(2, 3) // 24 hosts, bottoms of 2
	// Same bottom switch: 2 hops.
	if got := m.Route(0, 1).Len(); got != 2 {
		t.Fatalf("local route length %d", got)
	}
	// Same inner-bottom (ports 0..3 share inner bottom 0): 4 hops.
	if got := m.Route(0, 2).Len(); got != 4 {
		t.Fatalf("one-level route length %d", got)
	}
	// Far pair: full 6 hops.
	if got := m.Route(0, 23).Len(); got != 6 {
		t.Fatalf("deep route length %d", got)
	}
}

func TestMultiFtreePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMultiFtree(0, 2) },
		func() { NewMultiFtree(2, 1) },
		func() { NewMultiFtree(2, 2).Route(0, 0) },
		func() { NewMultiFtree(2, 2).HostID(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// ExpectedSwitches evaluates the recursion S(1) = 1,
// S(l) = ports(l)/n + n²·S(l−1) in closed iterative form, an independent
// count for the builder's Switches().
func ExpectedSwitches(n, levels int) int {
	s := 1
	for l := 2; l <= levels; l++ {
		ports := pow(n, l+1) + pow(n, l)
		s = ports/n + n*n*s
	}
	return s
}

// HostID returns the node ID of host h (hosts are the low IDs).
func (m *MultiFtree) HostID(h int) NodeID {
	if h < 0 || h >= m.Ports() {
		panic(fmt.Sprintf("topology: host %d out of range in %s", h, m.Net.Name))
	}
	return NodeID(h)
}
