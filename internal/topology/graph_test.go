package topology

import (
	"slices"
	"strings"
	"testing"
)

func TestNetworkAddNodeAndLink(t *testing.T) {
	g := NewNetwork("test")
	a := g.AddNode(Host, 0, 0, "a")
	b := g.AddNode(Switch, 1, 0, "b")
	c := g.AddNode(Host, 0, 1, "")
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("unexpected node IDs: %d %d %d", a, b, c)
	}
	if g.NumNodes() != 3 || g.NumHosts() != 2 || g.NumSwitches() != 1 {
		t.Fatalf("counts wrong: nodes=%d hosts=%d switches=%d", g.NumNodes(), g.NumHosts(), g.NumSwitches())
	}
	l1 := g.AddLink(a, b)
	l2 := g.AddLink(b, a)
	if l1 != 0 || l2 != 1 {
		t.Fatalf("unexpected link IDs: %d %d", l1, l2)
	}
	if g.FindLink(a, b) != l1 || g.FindLink(b, a) != l2 {
		t.Fatal("FindLink mismatch")
	}
	if g.FindLink(a, c) != NoLink {
		t.Fatal("FindLink should report NoLink for non-adjacent nodes")
	}
	if g.OutDegree(a) != 1 || g.InDegree(a) != 1 {
		t.Fatalf("degrees wrong: out=%d in=%d", g.OutDegree(a), g.InDegree(a))
	}
}

func TestNetworkDefaultLabel(t *testing.T) {
	g := NewNetwork("test")
	id := g.AddNode(Switch, 2, 7, "")
	if got := g.Node(id).Label; got != "switch-2-7" {
		t.Fatalf("default label = %q", got)
	}
}

func TestNetworkDuplicateLinkPanics(t *testing.T) {
	g := NewNetwork("test")
	a := g.AddNode(Host, 0, 0, "a")
	b := g.AddNode(Switch, 1, 0, "b")
	g.AddLink(a, b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate link")
		}
	}()
	g.AddLink(a, b)
}

func TestNetworkSelfLoopPanics(t *testing.T) {
	g := NewNetwork("test")
	a := g.AddNode(Switch, 1, 0, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	g.AddLink(a, a)
}

func TestNetworkRadixCollapsesDuplex(t *testing.T) {
	g := NewNetwork("test")
	a := g.AddNode(Switch, 1, 0, "a")
	b := g.AddNode(Switch, 1, 1, "b")
	c := g.AddNode(Switch, 1, 2, "c")
	g.AddDuplex(a, b)
	g.AddDuplex(a, c)
	if r := g.Radix(a); r != 2 {
		t.Fatalf("radix = %d, want 2", r)
	}
}

func TestNetworkNeighbors(t *testing.T) {
	g := NewNetwork("test")
	a := g.AddNode(Switch, 1, 0, "a")
	b := g.AddNode(Switch, 1, 1, "b")
	c := g.AddNode(Switch, 1, 2, "c")
	g.AddDuplex(a, c)
	g.AddDuplex(a, b)
	nb := g.Neighbors(a)
	if len(nb) != 2 || nb[0] != b || nb[1] != c {
		t.Fatalf("Neighbors = %v, want [%d %d] sorted", nb, b, c)
	}
}

func TestShortestPath(t *testing.T) {
	f := NewFoldedClos(2, 3, 4)
	src := f.HostID(0, 0)
	dst := f.HostID(3, 1)
	p, err := f.Net.ShortestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("cross-switch shortest path length = %d, want 4", p.Len())
	}
	if !p.Valid(f.Net) {
		t.Fatal("path not valid")
	}
	// Same-switch pair: 2 hops.
	p, err = f.Net.ShortestPath(f.HostID(1, 0), f.HostID(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("same-switch shortest path length = %d, want 2", p.Len())
	}
}

func TestShortestPathSelf(t *testing.T) {
	f := NewFoldedClos(2, 2, 3)
	p, err := f.Net.ShortestPath(f.HostID(0, 0), f.HostID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path = %+v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewNetwork("test")
	a := g.AddNode(Host, 0, 0, "a")
	b := g.AddNode(Host, 0, 1, "b")
	g.AddLink(a, b) // one-way only
	if _, err := g.ShortestPath(b, a); err == nil {
		t.Fatal("expected error for unreachable destination")
	}
}

func TestPathBetweenRejectsNonAdjacent(t *testing.T) {
	f := NewFoldedClos(2, 2, 3)
	_, err := f.Net.PathBetween(f.HostID(0, 0), f.HostID(1, 0))
	if err == nil {
		t.Fatal("expected error: hosts are not adjacent")
	}
}

func TestPathValidRejectsCorrupt(t *testing.T) {
	f := NewFoldedClos(2, 2, 3)
	p, err := f.Net.PathBetween(f.HostID(0, 0), f.Bottom(0))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid(f.Net) {
		t.Fatal("valid path reported invalid")
	}
	bad := Path{Nodes: p.Nodes, Links: []LinkID{p.Links[0] + 1}}
	if bad.Valid(f.Net) {
		t.Fatal("corrupt path reported valid")
	}
	empty := Path{}
	if empty.Valid(f.Net) {
		t.Fatal("empty path reported valid")
	}
}

func TestConnected(t *testing.T) {
	f := NewFoldedClos(2, 2, 3)
	if !f.Net.Connected() {
		t.Fatal("ftree should be strongly connected")
	}
	g := NewNetwork("disconnected")
	g.AddNode(Host, 0, 0, "a")
	g.AddNode(Host, 0, 1, "b")
	if g.Connected() {
		t.Fatal("two isolated nodes reported connected")
	}
}

func TestSwitchIDsAndMaxLevel(t *testing.T) {
	f := NewFoldedClos(2, 3, 4)
	if got := len(f.Net.SwitchIDs(1)); got != 4 {
		t.Fatalf("level-1 switches = %d, want 4", got)
	}
	if got := len(f.Net.SwitchIDs(2)); got != 3 {
		t.Fatalf("level-2 switches = %d, want 3", got)
	}
	if got := f.Net.MaxSwitchLevel(); got != 2 {
		t.Fatalf("MaxSwitchLevel = %d, want 2", got)
	}
}

func TestNodeKindString(t *testing.T) {
	if Host.String() != "host" || Switch.String() != "switch" {
		t.Fatal("NodeKind.String mismatch")
	}
	if s := NodeKind(9).String(); !strings.Contains(s, "9") {
		t.Fatalf("unknown kind string = %q", s)
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// Hosts returns the IDs of all hosts in ascending order. The returned slice
// is owned by the network and must not be modified.
func (g *Network) Hosts() []NodeID { return g.hosts }

// Neighbors returns the distinct nodes reachable over outgoing links of id,
// in ascending ID order.
func (g *Network) Neighbors(id NodeID) []NodeID {
	out := g.Out(id)
	res := make([]NodeID, 0, len(out))
	seen := make(map[NodeID]struct{}, len(out))
	for _, l := range out {
		to := g.links[l].To
		if _, ok := seen[to]; !ok {
			seen[to] = struct{}{}
			res = append(res, to)
		}
	}
	slices.Sort(res)
	return res
}

// SwitchIDs returns the IDs of all switches at the given level, ascending.
func (g *Network) SwitchIDs(level int) []NodeID {
	var res []NodeID
	for _, n := range g.nodes {
		if n.Kind == Switch && n.Level == level {
			res = append(res, n.ID)
		}
	}
	return res
}

// MaxSwitchLevel returns the highest switch level present, or 0 when the
// network has no switches.
func (g *Network) MaxSwitchLevel() int {
	max := 0
	for _, n := range g.nodes {
		if n.Kind == Switch && n.Level > max {
			max = n.Level
		}
	}
	return max
}
