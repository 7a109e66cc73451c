package topology

import (
	"strings"
	"sync"
	"testing"
)

// TestZeroNetworkAddLink builds on a zero-value Network, as its doc
// promises: nodes and links add, lookups find them, and the duplicate and
// self-loop panics still fire.
func TestZeroNetworkAddLink(t *testing.T) {
	var g Network
	a := g.AddNode(Host, 0, 0, "a")
	b := g.AddNode(Switch, 1, 0, "b")
	ab, ba := g.AddDuplex(a, b)
	if g.FindLink(a, b) != ab || g.FindLink(b, a) != ba {
		t.Fatalf("FindLink = %d, %d; want %d, %d", g.FindLink(a, b), g.FindLink(b, a), ab, ba)
	}
	if got := g.Out(a); len(got) != 1 || got[0] != ab {
		t.Fatalf("Out(a) = %v", got)
	}
	for _, c := range []struct {
		name     string
		from, to NodeID
		want     string
	}{
		{"duplicate", a, b, "duplicate link 0->1"},
		{"self-loop", b, b, "self-loop on node 1"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want %q", c.name, msg, c.want)
				}
			}()
			g.AddLink(c.from, c.to)
		}()
	}
}

// TestFindLinkOutOfRange keeps FindLink's contract for IDs outside the
// network: NoLink, never a panic.
func TestFindLinkOutOfRange(t *testing.T) {
	g := NewFoldedClos(2, 2, 2).Net
	n := NodeID(g.NumNodes())
	for _, c := range [][2]NodeID{{-1, 0}, {0, -1}, {n, 0}, {0, n}, {n, n}} {
		if got := g.FindLink(c[0], c[1]); got != NoLink {
			t.Errorf("FindLink(%d, %d) = %d, want NoLink", c[0], c[1], got)
		}
	}
}

// TestFindLinkEveryLink looks every link of several topologies up by its
// endpoints, from both scan directions (a wide top switch's out-list and
// a narrow bottom switch's in-list), and checks non-adjacent pairs miss.
func TestFindLinkEveryLink(t *testing.T) {
	for _, g := range []*Network{
		NewFoldedClos(3, 2, 9).Net, // top switches wider than bottom ones
		NewFoldedClos(2, 9, 3).Net, // bottom switches wider than top ones
		NewClos(2, 3, 4).Net,
		NewMPortNTree(4, 3).Net,
		NewBenes(3).Net,
	} {
		for l := LinkID(0); int(l) < g.NumLinks(); l++ {
			lk := g.Link(l)
			if got := g.FindLink(lk.From, lk.To); got != l {
				t.Fatalf("%s: FindLink(%d, %d) = %d, want %d", g.Name, lk.From, lk.To, got, l)
			}
		}
		adjacent := 0
		for a := NodeID(0); int(a) < g.NumNodes(); a++ {
			for b := NodeID(0); int(b) < g.NumNodes(); b++ {
				if g.FindLink(a, b) != NoLink {
					adjacent++
				}
			}
		}
		if adjacent != g.NumLinks() {
			t.Fatalf("%s: %d adjacent ordered pairs, want %d", g.Name, adjacent, g.NumLinks())
		}
	}
}

// TestNewFoldedClosAllocs pins the Table-I fabric build, ftree(4+16, 20),
// at one allocation per storage array: the FoldedClos, the network and
// its name, the node, link, host and per-node list arrays, one adjacency
// array for every node's lists, and the label buffer, its ends and the
// one label string. An endpoint index or per-label formatting would add
// hundreds.
func TestNewFoldedClosAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(20, func() { NewFoldedClos(4, 16, 20) }); got != 12 {
		t.Errorf("NewFoldedClos(4, 16, 20): %v allocs per run, want 12", got)
	}
}

// TestNetworkConcurrentReaders reads one built network from several
// goroutines at once; under -race it proves no accessor derives state
// lazily.
func TestNetworkConcurrentReaders(t *testing.T) {
	f := NewFoldedClos(4, 16, 20)
	g := f.Net
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := NodeID(0); int(id) < g.NumNodes(); id++ {
				if g.Node(id).ID != id {
					t.Errorf("Node(%d) has ID %d", id, g.Node(id).ID)
				}
				for _, l := range g.Out(id) {
					if g.FindLink(id, g.Link(l).To) != l {
						t.Errorf("out-link %d of node %d not found", l, id)
					}
				}
				for _, l := range g.In(id) {
					if g.FindLink(g.Link(l).From, id) != l {
						t.Errorf("in-link %d of node %d not found", l, id)
					}
				}
			}
		}()
	}
	wg.Wait()
}
