package topology

import (
	"fmt"
	"strconv"
)

// MPortNTree is the m-port n-tree FT(m, n) of Lin, Chung and Huang [12],
// the rearrangeably nonblocking folded-Clos family the paper's Table I
// compares against. Built from m-port switches (m even, k = m/2), it
// supports 2·k^n hosts with (2n−1)·k^(n−1) switches. FT(m, 2) is
// ftree(k+k, 2k); FT(m, 3) is the classic three-level "fat-tree" used in
// commodity clusters.
//
// Addressing: hosts are (q, u_{n−2}, …, u_0) with q ∈ [0, 2k) selecting one
// of 2k subtree groups ("pods" when n = 3) and u_j ∈ [0, k). Switch levels
// run 0 (leaf) … n−1 (top). Non-top level-l switches are (q, d_{n−2}, …,
// d_1); top switches are (x, d_{n−2}, …, d_1) with x ∈ [0, k). A level-l
// switch connects upward to the k level-(l+1) switches that agree with it on
// every digit except d_{l+1} (the top level plays the role of digit n−1 via
// x). Consequently an up-path from a leaf to level l freely chooses digits
// d_1…d_l, which is exactly the path diversity multipath and adaptive
// schemes exploit.
type MPortNTree struct {
	// M is the switch port count (even).
	M int
	// Levels is n, the number of switch levels.
	Levels int
	// K is M/2.
	K int

	// Net is the underlying directed graph.
	Net *Network

	hostBase NodeID
	lvlBase  []NodeID // lvlBase[l] is the first switch ID of level l
}

// NewMPortNTree builds FT(m, n). m must be even and ≥ 2; n ≥ 1. FT(m, 1) is
// a single m-port switch with m hosts.
func NewMPortNTree(m, n int) *MPortNTree {
	if m < 2 || m%2 != 0 {
		panic(fmt.Sprintf("topology: FT(%d,%d): m must be even and >= 2", m, n))
	}
	if n < 1 {
		panic(fmt.Sprintf("topology: FT(%d,%d): n must be >= 1", m, n))
	}
	k := m / 2
	t := &MPortNTree{M: m, Levels: n, K: k, Net: NewNetwork("FT(" + strconv.Itoa(m) + "," + strconv.Itoa(n) + ")")}
	g := t.Net

	if n == 1 {
		g.reserve(m+1, m, 2*m)
		lb := newLabels(m + 1)
		t.hostBase = 0
		for i := 0; i < m; i++ {
			g.addNode(Host, 0, i, 1, 1)
			lb.str("h").num(i).end()
		}
		sw := g.addNode(Switch, 1, 0, m, m)
		lb.str("s0").end()
		lb.apply(g)
		t.lvlBase = []NodeID{sw}
		for i := 0; i < m; i++ {
			t.Net.AddDuplex(NodeID(i), sw)
		}
		return t
	}

	groupSz := pow(k, n-1) // hosts per q group
	// Non-top levels: 2k·k^(n−2) switches each; top level: k^(n−1). Every
	// switch uses all m ports; each level boundary, hosts included, is
	// 2k^n duplex cables.
	nonTop := 2 * k * pow(k, n-2)
	top := pow(k, n-1)
	hosts := 2 * k * groupSz
	nodes := hosts + (n-1)*nonTop + top
	g.reserve(nodes, hosts, 2*n*hosts)
	lb := newLabels(nodes)
	t.hostBase = 0
	for q := 0; q < 2*k; q++ {
		for u := 0; u < groupSz; u++ {
			g.addNode(Host, 0, q*groupSz+u, 1, 1)
			lb.str("h").num(q).str(".").digits(u, k, n-1).end()
		}
	}
	t.lvlBase = make([]NodeID, n)
	for l := 0; l < n-1; l++ {
		t.lvlBase[l] = NodeID(g.NumNodes())
		for i := 0; i < nonTop; i++ {
			g.addNode(Switch, l+1, i, m, m)
			lb.str("L").num(l).str(".").num(i).end()
		}
	}
	t.lvlBase[n-1] = NodeID(g.NumNodes())
	for i := 0; i < top; i++ {
		g.addNode(Switch, n, i, m, m)
		lb.str("T").num(i).end()
	}
	lb.apply(g)

	// Host ↔ leaf switch.
	for q := 0; q < 2*k; q++ {
		for u := 0; u < groupSz; u++ {
			t.Net.AddDuplex(t.HostID(q, u), t.SwitchID(0, q, u/k))
		}
	}
	// Level l ↔ l+1, both non-top: vary digit d_{l+1} (index l in the
	// (n−2)-digit switch suffix, counting d_1 as index 0).
	for l := 0; l+1 < n-1; l++ {
		stride := pow(k, l) // weight of digit d_{l+1} within the suffix
		for q := 0; q < 2*k; q++ {
			for s := 0; s < pow(k, n-2); s++ {
				lo := t.SwitchID(l, q, s)
				base := s - (s/stride%k)*stride
				for d := 0; d < k; d++ {
					hi := t.SwitchID(l+1, q, base+d*stride)
					t.Net.AddDuplex(lo, hi)
				}
			}
		}
	}
	// Level n−2 ↔ top: suffix digits all agree; top adds digit x.
	if n >= 2 {
		suf := pow(k, n-2)
		for q := 0; q < 2*k; q++ {
			for s := 0; s < suf; s++ {
				lo := t.SwitchID(n-2, q, s)
				for x := 0; x < k; x++ {
					t.Net.AddDuplex(lo, t.lvlBase[n-1]+NodeID(x*suf+s))
				}
			}
		}
	}
	return t
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// appendDigits appends v's low digits base-base digits, most significant
// first, each written in decimal; no digits at all write "0".
func appendDigits(buf []byte, v, base, digits int) []byte {
	if digits <= 0 {
		return append(buf, '0')
	}
	if digits > 1 {
		buf = appendDigits(buf, v/base, base, digits-1)
	}
	return strconv.AppendInt(buf, int64(v%base), 10)
}

// Hosts reports the number of hosts, 2·k^n.
func (t *MPortNTree) Hosts() int {
	if t.Levels == 1 {
		return t.M
	}
	return 2 * pow(t.K, t.Levels)
}

// Switches reports the total switch count, (2n−1)·k^(n−1).
func (t *MPortNTree) Switches() int {
	if t.Levels == 1 {
		return 1
	}
	return (2*t.Levels - 1) * pow(t.K, t.Levels-1)
}

// HostID returns the node ID of the host with group q and in-group index u
// (u encodes digits u_{n−2}…u_0 in base k).
func (t *MPortNTree) HostID(q, u int) NodeID {
	groupSz := pow(t.K, t.Levels-1)
	if q < 0 || q >= 2*t.K || u < 0 || u >= groupSz {
		panic(fmt.Sprintf("topology: host (%d,%d) out of range in %s", q, u, t.Net.Name))
	}
	return t.hostBase + NodeID(q*groupSz+u)
}

// SwitchID returns the node ID of the non-top switch at level l with group q
// and suffix index s (s encodes digits d_{n−2}…d_1 in base k). For the top
// level use TopID.
func (t *MPortNTree) SwitchID(l, q, s int) NodeID {
	if l < 0 || l >= t.Levels-1 {
		panic(fmt.Sprintf("topology: level %d out of range in %s", l, t.Net.Name))
	}
	suf := pow(t.K, t.Levels-2)
	if q < 0 || q >= 2*t.K || s < 0 || s >= suf {
		panic(fmt.Sprintf("topology: switch (l=%d,q=%d,s=%d) out of range in %s", l, q, s, t.Net.Name))
	}
	return t.lvlBase[l] + NodeID(q*suf+s)
}

// TopID returns the node ID of top-level switch (x, s): x ∈ [0, k) and s the
// (n−2)-digit suffix shared with the level-(n−2) switches below it.
func (t *MPortNTree) TopID(x, s int) NodeID {
	suf := pow(t.K, t.Levels-2)
	if x < 0 || x >= t.K || s < 0 || s >= suf {
		panic(fmt.Sprintf("topology: top switch (%d,%d) out of range in %s", x, s, t.Net.Name))
	}
	return t.lvlBase[t.Levels-1] + NodeID(x*suf+s)
}

// HostAddr decomposes a host node ID into (q, u).
func (t *MPortNTree) HostAddr(id NodeID) (q, u int) {
	groupSz := pow(t.K, t.Levels-1)
	i := int(id - t.hostBase)
	if i < 0 || i >= 2*t.K*groupSz {
		panic(fmt.Sprintf("topology: node %d is not a host in %s", id, t.Net.Name))
	}
	return i / groupSz, i % groupSz
}

// UpDownPath returns the up*/down* path from host src to host dst.
// upChoices supplies the free digit selected at each up step (values in
// [0, k)); its length must be at least the number of up hops. For hosts in
// the same group the path climbs only to the first level where the
// addresses merge; for hosts in different groups it climbs to the top.
func (t *MPortNTree) UpDownPath(src, dst NodeID, upChoices []int) (Path, error) {
	if t.Levels == 1 {
		return t.Net.PathBetween(src, t.lvlBase[0], dst)
	}
	qs, us := t.HostAddr(src)
	qd, ud := t.HostAddr(dst)
	if src == dst {
		return Path{}, fmt.Errorf("topology: src == dst")
	}
	k, n := t.K, t.Levels
	sdig := toDigits(us, k, n-1) // u_0 … u_{n−2}
	ddig := toDigits(ud, k, n-1)

	// Climb height: same leaf switch → 0 hops beyond leaf; same group →
	// highest differing digit index; different group → through the top.
	topMost := 0 // switch level of the path apex
	if qs == qd {
		for j := n - 2; j >= 1; j-- {
			if sdig[j] != ddig[j] {
				topMost = j
				break
			}
		}
	} else {
		topMost = n - 1
	}

	nodes := []NodeID{src}
	// d[j] holds suffix digit d_{j+1}, whose weight within the suffix
	// index is k^j.
	suffix := func(d []int) int {
		s := 0
		for j := 0; j <= n-3; j++ {
			s += d[j] * pow(k, j)
		}
		return s
	}
	d := make([]int, maxInt(n-2, 0))
	for j := 0; j <= n-3; j++ {
		d[j] = sdig[j+1] // leaf switch suffix = source digits u_1…u_{n−2}
	}
	nodes = append(nodes, t.SwitchID(0, qs, suffix(d)))

	need := topMost // up hops beyond the leaf switch
	if len(upChoices) < need {
		return Path{}, fmt.Errorf("topology: need %d up choices, have %d", need, len(upChoices))
	}
	for _, c := range upChoices[:need] {
		if c < 0 || c >= k {
			return Path{}, fmt.Errorf("topology: up choice %d out of [0,%d)", c, k)
		}
	}
	// Ascend.
	for l := 0; l < topMost; l++ {
		if l+1 <= n-2 {
			// moving to non-top level l+1: digit d_{l+1} ← choice
			d[l] = upChoices[l]
			nodes = append(nodes, t.SwitchID(l+1, qs, suffix(d)))
		} else {
			// moving to the top level: x ← choice
			nodes = append(nodes, t.TopID(upChoices[l], suffix(d)))
		}
	}
	// Descend.
	for l := topMost; l > 0; l-- {
		if l == n-1 {
			// top → level n−2 in the destination group; suffix unchanged
			nodes = append(nodes, t.SwitchID(n-2, qd, suffix(d)))
		} else {
			// level l → l−1: digit d_l ← destination digit u_l
			d[l-1] = ddig[l]
			nodes = append(nodes, t.SwitchID(l-1, qd, suffix(d)))
		}
	}
	nodes = append(nodes, dst)
	return t.Net.PathBetween(nodes...)
}

// NumUpHops reports how many free up-hop choices a path from src to dst has
// (0 when the hosts share a leaf switch).
func (t *MPortNTree) NumUpHops(src, dst NodeID) int {
	if t.Levels == 1 {
		return 0
	}
	qs, us := t.HostAddr(src)
	qd, ud := t.HostAddr(dst)
	if qs != qd {
		return t.Levels - 1
	}
	sdig := toDigits(us, t.K, t.Levels-1)
	ddig := toDigits(ud, t.K, t.Levels-1)
	for j := t.Levels - 2; j >= 1; j-- {
		if sdig[j] != ddig[j] {
			return j
		}
	}
	return 0
}

// Validate performs structural self-checks: host/switch counts, switch
// radixes and strong connectivity.
func (t *MPortNTree) Validate() error {
	g := t.Net
	if g.NumHosts() != t.Hosts() {
		return fmt.Errorf("%s: have %d hosts, want %d", g.Name, g.NumHosts(), t.Hosts())
	}
	if g.NumSwitches() != t.Switches() {
		return fmt.Errorf("%s: have %d switches, want %d", g.Name, g.NumSwitches(), t.Switches())
	}
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		nd := g.Node(id)
		if nd.Kind != Switch {
			continue
		}
		r := g.Radix(id)
		if t.Levels == 1 {
			if r != t.M {
				return fmt.Errorf("%s: switch %d radix %d, want %d", g.Name, id, r, t.M)
			}
			continue
		}
		if r != t.M {
			return fmt.Errorf("%s: switch %q radix %d, want m=%d", g.Name, nd.Label, r, t.M)
		}
	}
	if !g.Connected() {
		return fmt.Errorf("%s: not strongly connected", g.Name)
	}
	return nil
}

// toDigits returns v written in base `base` with `digits` digits, least
// significant first.
func toDigits(v, base, digits int) []int {
	d := make([]int, digits)
	for i := 0; i < digits; i++ {
		d[i] = v % base
		v /= base
	}
	return d
}

// fromDigits folds base-`base` digits (least significant first) into an int.
func fromDigits(d []int, base int) int {
	v := 0
	for i := len(d) - 1; i >= 0; i-- {
		v = v*base + d[i]
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
