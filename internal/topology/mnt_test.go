package topology

import (
	"math/rand"
	"testing"
)

func TestMPortNTreeCounts(t *testing.T) {
	cases := []struct{ m, n, hosts, switches int }{
		{4, 1, 4, 1},
		{4, 2, 8, 6},     // ftree(2+2,4): 2k^2=8 hosts, 3k=6 switches
		{20, 2, 200, 30}, // Table I row 1: FT(20,2)
		{30, 2, 450, 45}, // Table I row 2
		{42, 2, 882, 63}, // Table I row 3 (paper prints 884, see EXPERIMENTS.md)
		{4, 3, 16, 20},   // Al-Fares fat-tree with 4-port switches
		{6, 3, 54, 45},
		{4, 4, 32, 56},
	}
	for _, c := range cases {
		ft := NewMPortNTree(c.m, c.n)
		if ft.Hosts() != c.hosts {
			t.Errorf("FT(%d,%d): hosts = %d, want %d", c.m, c.n, ft.Hosts(), c.hosts)
		}
		if ft.Switches() != c.switches {
			t.Errorf("FT(%d,%d): switches = %d, want %d", c.m, c.n, ft.Switches(), c.switches)
		}
		if err := ft.Validate(); err != nil {
			t.Errorf("FT(%d,%d): %v", c.m, c.n, err)
		}
	}
}

func TestMPortNTreeFormulas(t *testing.T) {
	// hosts = 2(m/2)^n, switches = (2n-1)(m/2)^(n-1), per Lin et al.
	for _, m := range []int{4, 6, 8} {
		for _, n := range []int{2, 3} {
			ft := NewMPortNTree(m, n)
			k := m / 2
			if ft.Hosts() != 2*pow(k, n) {
				t.Errorf("FT(%d,%d) hosts formula mismatch", m, n)
			}
			if ft.Switches() != (2*n-1)*pow(k, n-1) {
				t.Errorf("FT(%d,%d) switches formula mismatch", m, n)
			}
		}
	}
}

func TestMPortNTreeInvalidParams(t *testing.T) {
	for _, c := range [][2]int{{3, 2}, {0, 2}, {4, 0}, {-2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMPortNTree(%v) should panic", c)
				}
			}()
			NewMPortNTree(c[0], c[1])
		}()
	}
}

func TestMPortNTreeUpDownPathsAllPairs(t *testing.T) {
	for _, c := range [][2]int{{4, 2}, {4, 3}, {6, 2}, {6, 3}} {
		ft := NewMPortNTree(c[0], c[1])
		hosts := ft.Net.Hosts()
		rng := rand.New(rand.NewSource(7))
		for _, s := range hosts {
			for _, d := range hosts {
				if s == d {
					continue
				}
				hops := ft.NumUpHops(s, d)
				choices := make([]int, hops)
				for i := range choices {
					choices[i] = rng.Intn(ft.K)
				}
				p, err := ft.UpDownPath(s, d, choices)
				if err != nil {
					t.Fatalf("FT(%d,%d) path %d->%d: %v", c[0], c[1], s, d, err)
				}
				if !p.Valid(ft.Net) {
					t.Fatalf("FT(%d,%d) path %d->%d invalid", c[0], c[1], s, d)
				}
				if ft.Net.Link(p.Links[0]).From != s || ft.Net.Link(p.Links[p.Len()-1]).To != d {
					t.Fatalf("FT(%d,%d) path endpoints wrong", c[0], c[1])
				}
				if want := 2 + 2*hops; p.Len() != want {
					t.Fatalf("FT(%d,%d) path %d->%d length %d, want %d", c[0], c[1], s, d, p.Len(), want)
				}
			}
		}
	}
}

func TestMPortNTreePathDiversity(t *testing.T) {
	// Cross-group hosts in FT(m,2) must reach each other via every top
	// switch: k distinct paths.
	ft := NewMPortNTree(6, 2)
	s := ft.HostID(0, 0)
	d := ft.HostID(3, 1)
	seen := map[NodeID]bool{}
	for x := 0; x < ft.K; x++ {
		p, err := ft.UpDownPath(s, d, []int{x})
		if err != nil {
			t.Fatal(err)
		}
		mid := ft.Net.Link(p.Links[1]).To
		if seen[mid] {
			t.Fatalf("top switch %d reused", mid)
		}
		seen[mid] = true
	}
	if len(seen) != ft.K {
		t.Fatalf("distinct top switches = %d, want %d", len(seen), ft.K)
	}
}

func TestMPortNTreeSingleLevel(t *testing.T) {
	ft := NewMPortNTree(8, 1)
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := ft.UpDownPath(NodeID(0), NodeID(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("single-level path length = %d", p.Len())
	}
}

func TestMPortNTreeErrors(t *testing.T) {
	ft := NewMPortNTree(4, 2)
	if _, err := ft.UpDownPath(ft.HostID(0, 0), ft.HostID(0, 0), nil); err == nil {
		t.Fatal("src == dst should error")
	}
	if _, err := ft.UpDownPath(ft.HostID(0, 0), ft.HostID(1, 0), nil); err == nil {
		t.Fatal("missing up choices should error")
	}
	if _, err := ft.UpDownPath(ft.HostID(0, 0), ft.HostID(1, 0), []int{9}); err == nil {
		t.Fatal("out-of-range up choice should error")
	}
}

func TestMPortNTreeEquivalentToFtree(t *testing.T) {
	// FT(2k, 2) must be structurally identical to ftree(k+k, 2k).
	k := 3
	ft := NewMPortNTree(2*k, 2)
	f2 := NewFoldedClos(k, k, 2*k)
	if ft.Hosts() != f2.Ports() || ft.Switches() != f2.Switches() {
		t.Fatal("FT(2k,2) vs ftree(k+k,2k) size mismatch")
	}
	if ft.Net.NumLinks() != f2.Net.NumLinks() {
		t.Fatal("link count mismatch")
	}
}

func TestKAryNTreeCounts(t *testing.T) {
	for _, c := range []struct{ k, n int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 2}, {2, 4}} {
		tr := NewKAryNTree(c.k, c.n)
		if tr.Hosts() != pow(c.k, c.n) {
			t.Errorf("%d-ary %d-tree hosts = %d", c.k, c.n, tr.Hosts())
		}
		if tr.Switches() != c.n*pow(c.k, c.n-1) {
			t.Errorf("%d-ary %d-tree switches = %d", c.k, c.n, tr.Switches())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%d-ary %d-tree: %v", c.k, c.n, err)
		}
	}
}

func TestKAryNTreeErrors(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid params should panic")
			}
		}()
		NewKAryNTree(1, 2)
	}()
}

func TestDigitHelpers(t *testing.T) {
	d := toDigits(23, 5, 3) // 23 = 0*25+4*5+3
	if d[0] != 3 || d[1] != 4 || d[2] != 0 {
		t.Fatalf("toDigits(23,5,3) = %v", d)
	}
	if fromDigits(d, 5) != 23 {
		t.Fatalf("fromDigits roundtrip failed: %v", d)
	}
	if pow(3, 4) != 81 || pow(7, 0) != 1 {
		t.Fatal("pow wrong")
	}
	if digitsLabel(23, 5, 3) != "043" {
		t.Fatalf("digitsLabel = %q", digitsLabel(23, 5, 3))
	}
	if digitsLabel(0, 5, 0) != "0" {
		t.Fatalf("digitsLabel empty = %q", digitsLabel(0, 5, 0))
	}
	if maxInt(2, 5) != 5 || maxInt(5, 2) != 5 {
		t.Fatal("maxInt wrong")
	}
}
