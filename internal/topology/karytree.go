package topology

import (
	"fmt"
	"strconv"
)

// KAryNTree is the k-ary n-tree of Petrini and Vanneschi [14]: k^n hosts,
// n levels of k^(n−1) switches each. Hosts are addressed by n base-k digits
// u_{n−1}…u_0; switches at every level by n−1 base-k digits w_{n−2}…w_0. A
// level-l switch connects upward to the k level-(l+1) switches agreeing with
// it on every digit except w_l, so an up-path to level l freely chooses
// digits w_0…w_{l−1}. Non-top switches have radix 2k; top switches use only
// their k down ports.
type KAryNTree struct {
	// K is the arity (down/up ports per non-top switch).
	K int
	// Levels is n.
	Levels int

	// Net is the underlying directed graph.
	Net *Network

	lvlBase []NodeID
}

// NewKAryNTree builds the k-ary n-tree, k ≥ 2, n ≥ 1.
func NewKAryNTree(k, n int) *KAryNTree {
	if k < 2 || n < 1 {
		panic(fmt.Sprintf("topology: invalid %d-ary %d-tree", k, n))
	}
	t := &KAryNTree{K: k, Levels: n, Net: NewNetwork(strconv.Itoa(k) + "-ary " + strconv.Itoa(n) + "-tree")}
	g := t.Net
	hosts := pow(k, n)
	perLevel := pow(k, n-1)
	// Each of the n level boundaries, hosts included, is k^n duplex cables.
	g.reserve(hosts+n*perLevel, hosts, 2*n*hosts)
	lb := newLabels(hosts + n*perLevel)
	for i := 0; i < hosts; i++ {
		g.addNode(Host, 0, i, 1, 1)
		lb.str("h").digits(i, k, n).end()
	}
	t.lvlBase = make([]NodeID, n)
	for l := 0; l < n; l++ {
		t.lvlBase[l] = NodeID(g.NumNodes())
		deg := 2 * k // k down, k up
		if l == n-1 {
			deg = k
		}
		for w := 0; w < perLevel; w++ {
			g.addNode(Switch, l+1, w, deg, deg)
			lb.str("L").num(l).str(".").digits(w, k, n-1).end()
		}
	}
	lb.apply(g)
	// Hosts ↔ leaf switches: host u attaches to the switch whose digits
	// are u_{n−1}…u_1.
	for i := 0; i < hosts; i++ {
		g.AddDuplex(NodeID(i), t.SwitchID(0, i/k))
	}
	// Level l ↔ l+1: vary digit w_l.
	for l := 0; l+1 < n; l++ {
		stride := pow(k, l)
		for w := 0; w < perLevel; w++ {
			lo := t.SwitchID(l, w)
			base := w - (w/stride%k)*stride
			for d := 0; d < k; d++ {
				g.AddDuplex(lo, t.SwitchID(l+1, base+d*stride))
			}
		}
	}
	return t
}

// Hosts reports the host count k^n.
func (t *KAryNTree) Hosts() int { return pow(t.K, t.Levels) }

// Switches reports the switch count n·k^(n−1).
func (t *KAryNTree) Switches() int { return t.Levels * pow(t.K, t.Levels-1) }

// SwitchID returns the node ID of the level-l switch with digit index w.
func (t *KAryNTree) SwitchID(l, w int) NodeID {
	if l < 0 || l >= t.Levels || w < 0 || w >= pow(t.K, t.Levels-1) {
		panic(fmt.Sprintf("topology: switch (l=%d,w=%d) out of range in %s", l, w, t.Net.Name))
	}
	return t.lvlBase[l] + NodeID(w)
}

// Validate performs structural self-checks.
func (t *KAryNTree) Validate() error {
	g := t.Net
	if g.NumHosts() != t.Hosts() {
		return fmt.Errorf("%s: have %d hosts, want %d", g.Name, g.NumHosts(), t.Hosts())
	}
	if g.NumSwitches() != t.Switches() {
		return fmt.Errorf("%s: have %d switches, want %d", g.Name, g.NumSwitches(), t.Switches())
	}
	for l := 0; l < t.Levels; l++ {
		want := 2 * t.K
		if l == t.Levels-1 {
			want = t.K // top level: down ports only
		}
		for w := 0; w < pow(t.K, t.Levels-1); w++ {
			if r := g.Radix(t.SwitchID(l, w)); r != want {
				return fmt.Errorf("%s: switch (l=%d,w=%d) radix %d, want %d", g.Name, l, w, r, want)
			}
		}
	}
	if !g.Connected() {
		return fmt.Errorf("%s: not strongly connected", g.Name)
	}
	return nil
}
