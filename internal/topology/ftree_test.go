package topology

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestFoldedClosStructure(t *testing.T) {
	cases := []struct{ n, m, r int }{
		{1, 1, 1}, {1, 1, 2}, {2, 4, 5}, {2, 4, 8}, {3, 9, 7}, {4, 16, 20},
	}
	for _, c := range cases {
		f := NewFoldedClos(c.n, c.m, c.r)
		if err := f.Validate(); err != nil {
			t.Errorf("ftree(%d+%d,%d): %v", c.n, c.m, c.r, err)
		}
		if f.Ports() != c.r*c.n {
			t.Errorf("ftree(%d+%d,%d): ports = %d", c.n, c.m, c.r, f.Ports())
		}
		if f.Switches() != c.r+c.m {
			t.Errorf("ftree(%d+%d,%d): switches = %d", c.n, c.m, c.r, f.Switches())
		}
	}
}

func TestFoldedClosNumbering(t *testing.T) {
	f := NewFoldedClos(3, 2, 4)
	// Host (v,k) must be leaf number v*n+k, matching the paper's scheme.
	for v := 0; v < 4; v++ {
		for k := 0; k < 3; k++ {
			id := f.HostID(v, k)
			if int(id) != v*3+k {
				t.Fatalf("host (%d,%d) id = %d, want %d", v, k, id, v*3+k)
			}
			if f.HostSwitch(id) != v || f.HostLocal(id) != k {
				t.Fatalf("host (%d,%d): decode mismatch", v, k)
			}
			if !f.IsHost(id) {
				t.Fatalf("host (%d,%d) not recognized", v, k)
			}
		}
	}
	if f.IsHost(f.Bottom(0)) {
		t.Fatal("bottom switch misclassified as host")
	}
	for v := 0; v < 4; v++ {
		if f.BottomIndex(f.Bottom(v)) != v {
			t.Fatalf("bottom %d: index roundtrip failed", v)
		}
	}
	for m := 0; m < 2; m++ {
		if f.TopIndex(f.Top(m)) != m {
			t.Fatalf("top %d: index roundtrip failed", m)
		}
	}
}

func TestFoldedClosRouteVia(t *testing.T) {
	f := NewFoldedClos(2, 3, 4)
	src := f.HostID(0, 1)
	dst := f.HostID(2, 0)
	p := f.RouteVia(src, dst, 1)
	if !p.Valid(f.Net) {
		t.Fatal("RouteVia produced invalid path")
	}
	want := []NodeID{src, f.Bottom(0), f.Top(1), f.Bottom(2), dst}
	if got := pathNodes(f.Net, p); !slices.Equal(got, want) {
		t.Fatalf("nodes %v, want %v", got, want)
	}
	if p.Links[1] != f.UpLink(0, 1) || p.Links[2] != f.DownLink(1, 2) {
		t.Fatal("trunk link IDs mismatch")
	}
	// Same-switch SD pair bypasses the top level.
	p = f.RouteVia(f.HostID(1, 0), f.HostID(1, 1), 2)
	if p.Len() != 2 || f.Net.Link(p.Links[0]).To != f.Bottom(1) {
		t.Fatalf("intra-switch path wrong: %+v", p)
	}
	if !p.Valid(f.Net) {
		t.Fatal("intra-switch path invalid")
	}
}

func TestFoldedClosRouteViaPanics(t *testing.T) {
	f := NewFoldedClos(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for src == dst")
		}
	}()
	f.RouteVia(f.HostID(0, 0), f.HostID(0, 0), 0)
}

func TestFoldedClosSubtree(t *testing.T) {
	f := NewFoldedClos(3, 9, 7)
	s := f.Subtree()
	if s.N != 3 || s.M != 1 || s.R != 7 {
		t.Fatalf("subtree parameters: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 2: the subgraph is a regular tree with the root having r
	// children and each bottom switch n leaves.
	if d := s.Net.Radix(s.Top(0)); d != 7 {
		t.Fatalf("root radix = %d, want 7", d)
	}
}

func TestFoldedClosInvalidParamsPanic(t *testing.T) {
	for _, c := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFoldedClos(%v) should panic", c)
				}
			}()
			NewFoldedClos(c[0], c[1], c[2])
		}()
	}
}

func TestFoldedClosLinkAccessorsPanicOutOfRange(t *testing.T) {
	f := NewFoldedClos(2, 2, 2)
	for name, fn := range map[string]func(){
		"HostID":   func() { f.HostID(2, 0) },
		"Bottom":   func() { f.Bottom(-1) },
		"Top":      func() { f.Top(2) },
		"UpLink":   func() { f.UpLink(0, 5) },
		"HostUp":   func() { f.HostUpLink(0, 2) },
		"HostSw":   func() { f.HostSwitch(f.Bottom(0)) },
		"TopIndex": func() { f.TopIndex(f.Bottom(0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClosStructure(t *testing.T) {
	for _, c := range []struct{ n, m, r int }{{1, 1, 1}, {2, 3, 4}, {3, 5, 3}, {4, 7, 6}} {
		cl := NewClos(c.n, c.m, c.r)
		if err := cl.Validate(); err != nil {
			t.Errorf("Clos(%d,%d,%d): %v", c.n, c.m, c.r, err)
		}
		if cl.Ports() != c.r*c.n {
			t.Errorf("Clos(%d,%d,%d): ports = %d", c.n, c.m, c.r, cl.Ports())
		}
	}
}

func TestClosRouteVia(t *testing.T) {
	c := NewClos(2, 3, 4)
	p := c.RouteVia(1, 6, 2)
	if !p.Valid(c.Net) {
		t.Fatal("invalid Clos path")
	}
	if p.Len() != 4 {
		t.Fatalf("Clos path length = %d, want 4", p.Len())
	}
	// Even same-index endpoints cross the middle stage (unidirectional).
	p = c.RouteVia(0, 1, 0)
	if p.Len() != 4 {
		t.Fatalf("same-switch Clos path length = %d, want 4", p.Len())
	}
}

func TestClosFtreeEquivalence(t *testing.T) {
	// Clos(n,m,r) and ftree(n+m,r) are logically equivalent: same port
	// count, same trunk link count per direction.
	n, m, r := 3, 5, 7
	c := NewClos(n, m, r)
	f := NewFoldedClos(n, m, r)
	if c.Ports() != f.Ports() {
		t.Fatal("port counts differ")
	}
	// Clos up links = ftree up trunk links; Clos down = ftree down.
	if c.R*c.M != f.R*f.M {
		t.Fatal("trunk counts differ")
	}
}

func TestCrossbar(t *testing.T) {
	x := NewCrossbar(5)
	if x.Net.NumHosts() != 5 || x.Net.NumSwitches() != 1 {
		t.Fatal("crossbar counts wrong")
	}
	sw := NodeID(x.N) // the switch follows the hosts
	if x.Net.Radix(sw) != 5 {
		t.Fatal("crossbar radix wrong")
	}
	p := x.Route(1, 3)
	if !p.Valid(x.Net) || !slices.Equal(pathNodes(x.Net, p), []NodeID{1, sw, 3}) {
		t.Fatalf("crossbar path invalid: %+v", p)
	}
	if p.Len() != 2 {
		t.Fatalf("crossbar path length = %d", p.Len())
	}
	// Distinct SD pairs in a permutation never share a crossbar link.
	p2 := x.Route(2, 4)
	for _, l1 := range p.Links {
		for _, l2 := range p2.Links {
			if l1 == l2 {
				t.Fatal("crossbar paths share a link")
			}
		}
	}
}

func TestWriteDOT(t *testing.T) {
	f := NewFoldedClos(2, 2, 2)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, f.Net); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "graph \"ftree(2+2,2)\"") {
		t.Fatalf("missing header: %s", s)
	}
	// 4 host-bottom cables + 4 trunk cables = 8 undirected edges.
	if got := strings.Count(s, " -- "); got != 8 {
		t.Fatalf("edges = %d, want 8", got)
	}
	if !strings.Contains(s, "shape=box") || !strings.Contains(s, "shape=ellipse") {
		t.Fatal("missing node shapes")
	}
}

func TestClosAccessorPanics(t *testing.T) {
	c := NewClos(2, 3, 4)
	for name, fn := range map[string]func(){
		"InTerminal":   func() { c.InTerminal(-1) },
		"OutTerminal":  func() { c.OutTerminal(8) },
		"InputSwitch":  func() { c.InputSwitch(4) },
		"MiddleSwitch": func() { c.MiddleSwitch(3) },
		"OutputSwitch": func() { c.OutputSwitch(-2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCrossbarHostPanics(t *testing.T) {
	x := NewCrossbar(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.HostID(3)
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// TopIndex returns the top-level switch index t of node id.
func (f *FoldedClos) TopIndex(id NodeID) int {
	if id < f.topBase || id >= f.topBase+NodeID(f.M) {
		panic(fmt.Sprintf("topology: node %d is not a top switch in %s", id, f.Net.Name))
	}
	return int(id - f.topBase)
}

// BottomIndex returns the bottom-level switch index v of node id.
func (f *FoldedClos) BottomIndex(id NodeID) int {
	if id < f.bottomBase || id >= f.bottomBase+NodeID(f.R) {
		panic(fmt.Sprintf("topology: node %d is not a bottom switch in %s", id, f.Net.Name))
	}
	return int(id - f.bottomBase)
}

// Subtree returns the Fig. 2 subgraph of ftree(n+m, r): the ftree(n+1, r)
// containing all bottom switches and hosts but only one top-level switch.
// It is the structure the Lemma-2 analysis of how many SD pairs a single
// root can carry reasons about.
func (f *FoldedClos) Subtree() *FoldedClos {
	return NewFoldedClos(f.N, 1, f.R)
}
