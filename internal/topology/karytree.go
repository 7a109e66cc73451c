package topology

import "fmt"

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
	t := &KAryNTree{K: k, Levels: n, Net: NewNetwork(fmt.Sprintf("%d-ary %d-tree", k, n))}
	hosts := pow(k, n)
	for i := 0; i < hosts; i++ {
		t.Net.AddNode(Host, 0, i, fmt.Sprintf("h%s", digitsLabel(i, k, n)))
	}
	perLevel := pow(k, n-1)
	t.lvlBase = make([]NodeID, n)
	for l := 0; l < n; l++ {
		t.lvlBase[l] = NodeID(t.Net.NumNodes())
		for w := 0; w < perLevel; w++ {
			t.Net.AddNode(Switch, l+1, w, fmt.Sprintf("L%d.%s", l, digitsLabel(w, k, n-1)))
		}
	}
	// Hosts ↔ leaf switches: host u attaches to the switch whose digits
	// are u_{n−1}…u_1.
	for i := 0; i < hosts; i++ {
		t.Net.AddDuplex(NodeID(i), t.SwitchID(0, i/k))
	}
	// Level l ↔ l+1: vary digit w_l.
	for l := 0; l+1 < n; l++ {
		stride := pow(k, l)
		for w := 0; w < perLevel; w++ {
			lo := t.SwitchID(l, w)
			base := w - (w/stride%k)*stride
			for d := 0; d < k; d++ {
				t.Net.AddDuplex(lo, t.SwitchID(l+1, base+d*stride))
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

// NumUpHops reports the number of up hops (beyond the leaf switch) a
// src→dst path needs: the highest digit position where the host addresses
// differ, 0 when they share a leaf switch.
func (t *KAryNTree) NumUpHops(src, dst NodeID) int {
	s := toDigits(int(src), t.K, t.Levels)
	d := toDigits(int(dst), t.K, t.Levels)
	for j := t.Levels - 1; j >= 1; j-- {
		if s[j] != d[j] {
			return j
		}
	}
	return 0
}

// UpDownPath returns the up*/down* path from src to dst; upChoices supplies
// the freed digit at each up hop (length ≥ NumUpHops(src, dst)).
func (t *KAryNTree) UpDownPath(src, dst NodeID, upChoices []int) (Path, error) {
	if src == dst {
		return Path{}, fmt.Errorf("topology: src == dst")
	}
	k, n := t.K, t.Levels
	sdig := toDigits(int(src), k, n)
	ddig := toDigits(int(dst), k, n)
	apex := t.NumUpHops(src, dst)
	if len(upChoices) < apex {
		return Path{}, fmt.Errorf("topology: need %d up choices, have %d", apex, len(upChoices))
	}
	w := make([]int, n-1) // w[j] is switch digit w_j; leaf switch has w_j = u_{j+1}
	for j := 0; j < n-1; j++ {
		w[j] = sdig[j+1]
	}
	idx := func() int { return fromDigits(w, k) }
	nodes := []NodeID{src, t.SwitchID(0, idx())}
	for l := 0; l < apex; l++ {
		c := upChoices[l]
		if c < 0 || c >= k {
			return Path{}, fmt.Errorf("topology: up choice %d out of [0,%d)", c, k)
		}
		w[l] = c
		nodes = append(nodes, t.SwitchID(l+1, idx()))
	}
	for l := apex; l > 0; l-- {
		w[l-1] = ddig[l]
		nodes = append(nodes, t.SwitchID(l-1, idx()))
	}
	nodes = append(nodes, dst)
	return t.Net.PathBetween(nodes...)
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
