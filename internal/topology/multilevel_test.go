package topology

import (
	"fmt"
)
import "testing"

func TestMultiFtreeMatchesClosedForms(t *testing.T) {
	// Every port of every switch is cabled, so the directed link count is
	// switches·(n+n²) + hosts. The three-level rows are the Discussion's
	// construction, with 2n⁴+2n³+n² switches (the paper prints
	// 2n⁴+3n³+n²; see EXPERIMENTS.md E8).
	cases := []struct{ n, levels, ports, switches, links int }{
		{2, 2, 12, 10, 72},     // ftree(2+4,6): n³+n² = 12 hosts, 2n²+n = 10
		{3, 2, 36, 21, 288},    // 2n²+n = 21
		{4, 2, 80, 36, 800},    // Table I row 1
		{2, 3, 24, 52, 336},    // three-level, n = 2
		{3, 3, 108, 225, 2808}, // three-level, n = 3
		{2, 4, 48, 232, 1440},  // S(4) = n⁴+n³ + n²·S(3)
	}
	for _, c := range cases {
		m := NewMultiFtree(c.n, c.levels)
		if m.Ports() != c.ports {
			t.Errorf("ftree%d(n=%d): ports %d, want %d", c.levels, c.n, m.Ports(), c.ports)
		}
		if m.Switches() != c.switches {
			t.Errorf("ftree%d(n=%d): switches %d, want %d", c.levels, c.n, m.Switches(), c.switches)
		}
		if m.Net.NumLinks() != c.links {
			t.Errorf("ftree%d(n=%d): links %d, want %d", c.levels, c.n, m.Net.NumLinks(), c.links)
		}
		if m.Switches() != ExpectedSwitches(c.n, c.levels) {
			t.Errorf("ftree%d(n=%d): recursion formula mismatch", c.levels, c.n)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("ftree%d(n=%d): %v", c.levels, c.n, err)
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
				if m.Net.Link(p.Links[0]).From != NodeID(s) || m.Net.Link(p.Links[p.Len()-1]).To != NodeID(d) {
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

// TestThreeLevelFtreeRoutes checks every route of the Discussion's
// three-level network by locality: hosts on one bottom switch are 2 hops
// apart, hosts under one inner bottom switch (n² consecutive hosts) 4, and
// all others cross the whole network in 6.
func TestThreeLevelFtreeRoutes(t *testing.T) {
	const n = 2
	m := NewMultiFtree(n, 3)
	for s := 0; s < m.Ports(); s++ {
		for d := 0; d < m.Ports(); d++ {
			if s == d {
				continue
			}
			want := 6
			switch {
			case s/n == d/n:
				want = 2
			case s/(n*n) == d/(n*n):
				want = 4
			}
			if p := m.Route(m.HostID(s), m.HostID(d)); !p.Valid(m.Net) || p.Len() != want {
				t.Fatalf("route %d->%d: %v, want a valid %d-hop path", s, d, p.Links, want)
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
