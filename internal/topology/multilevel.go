package topology

import "fmt"

// MultiFtree is the paper's recursive nonblocking construction generalized
// to an arbitrary number of levels (Discussion §IV.A): the canonical
// L-level network supports n^(L+1) + n^L hosts using only (n+n²)-port
// switches. Level 2 is ftree(n+n², n+n²); level L replaces each of the n²
// top-level "switches" of ftree(n+n², r_L) — which must have radix
// r_L = ports(L−1) = n^L + n^(L−1) — with a complete (L−1)-level network.
// By induction every level is nonblocking under the recursive Theorem-3
// routing (each virtual switch sees at most a partial permutation of its
// ports). L = 3 is the three-level network of the Discussion: n⁴+n³ hosts
// from (n+n²)-port switches, with the top switches (not the bottom ones,
// following Theorem 1) replaced by sub-networks.
type MultiFtree struct {
	// N is the hosts-per-bottom-switch parameter.
	N int
	// Levels is L ≥ 2.
	Levels int

	// Net is the underlying directed graph.
	Net *Network

	root *fabric
}

// fabric is one recursive unit: a nonblocking sub-network with `ports`
// external ports. A level-1 fabric is a single physical switch; a level-l
// fabric has ports/n bottom switches and n² level-(l−1) sub-fabrics as its
// virtual top switches.
type fabric struct {
	level int
	ports int
	// sw is the single switch of a level-1 fabric.
	sw NodeID
	// bottoms are the bottom switches of a level-≥2 fabric.
	bottoms []NodeID
	// subs are the n² virtual top sub-fabrics.
	subs []*fabric
	n    int
}

// NewMultiFtree builds the canonical L-level network: levels ≥ 2, n ≥ 1;
// it supports n^(L+1) + n^L hosts.
func NewMultiFtree(n, levels int) *MultiFtree {
	if n < 1 || levels < 2 {
		panic(fmt.Sprintf("topology: invalid MultiFtree(n=%d, levels=%d)", n, levels))
	}
	ports := pow(n, levels+1) + pow(n, levels)
	m := &MultiFtree{
		N:      n,
		Levels: levels,
		Net:    NewNetwork(fmt.Sprintf("ftree%d(n=%d)", levels, n)),
	}
	for h := 0; h < ports; h++ {
		m.Net.AddNode(Host, 0, h, fmt.Sprintf("h%d", h))
	}
	m.root = m.buildFabric(levels, ports, "f")
	// Attach hosts to the outermost fabric's ports.
	for h := 0; h < ports; h++ {
		m.Net.AddDuplex(NodeID(h), m.root.attach(h))
	}
	return m
}

// buildFabric recursively constructs a level-`level` fabric with `ports`
// external ports and wires bottoms to sub-fabric ports.
func (m *MultiFtree) buildFabric(level, ports int, label string) *fabric {
	f := &fabric{level: level, ports: ports, n: m.N}
	if level == 1 {
		// A physical switch of radix `ports`. Its graph level is the
		// construction depth so DOT layouts stack correctly.
		f.sw = m.Net.AddNode(Switch, m.Levels, 0, label+".sw")
		return f
	}
	n := m.N
	if ports%n != 0 {
		panic(fmt.Sprintf("topology: fabric ports %d not divisible by n=%d", ports, n))
	}
	r := ports / n
	f.bottoms = make([]NodeID, r)
	// Graph level: hosts 0; outermost bottoms 1; each recursion adds one.
	graphLevel := m.Levels - level + 1
	for v := 0; v < r; v++ {
		f.bottoms[v] = m.Net.AddNode(Switch, graphLevel, v, fmt.Sprintf("%s.b%d", label, v))
	}
	f.subs = make([]*fabric, n*n)
	for s := range f.subs {
		f.subs[s] = m.buildFabric(level-1, r, fmt.Sprintf("%s.t%d", label, s))
		for v := 0; v < r; v++ {
			m.Net.AddDuplex(f.bottoms[v], f.subs[s].attach(v))
		}
	}
	return f
}

// attach returns the physical switch that external port p of the fabric
// connects to.
func (f *fabric) attach(p int) NodeID {
	if p < 0 || p >= f.ports {
		panic(fmt.Sprintf("topology: fabric port %d out of range [0,%d)", p, f.ports))
	}
	if f.level == 1 {
		return f.sw
	}
	return f.bottoms[p/f.n]
}

// route returns the internal switch sequence carrying traffic from port a
// to port b of the fabric under the recursive Theorem-3 rule: the virtual
// top (i, j) = (a mod n)·n + (b mod n) carries the pair, recursively.
func (f *fabric) route(a, b int) []NodeID {
	if a == b {
		panic("topology: fabric route requires distinct ports")
	}
	if f.level == 1 {
		return []NodeID{f.sw}
	}
	n := f.n
	va, vb := a/n, b/n
	if va == vb {
		return []NodeID{f.bottoms[va]}
	}
	sub := (a%n)*n + b%n
	inner := f.subs[sub].route(va, vb)
	path := make([]NodeID, 0, len(inner)+2)
	path = append(path, f.bottoms[va])
	path = append(path, inner...)
	path = append(path, f.bottoms[vb])
	return path
}

// Ports reports the host count n^(L+1) + n^L.
func (m *MultiFtree) Ports() int { return m.root.ports }

// Switches reports the physical switch count, satisfying
// S(1) = 1, S(l) = ports(l)/n + n²·S(l−1).
func (m *MultiFtree) Switches() int { return m.Net.NumSwitches() }

// SwitchRadix reports the uniform physical switch radix, n+n².
func (m *MultiFtree) SwitchRadix() int { return m.N + m.N*m.N }

// Route returns the full path from host src to host dst under the
// recursive Theorem-3 routing.
func (m *MultiFtree) Route(src, dst NodeID) Path {
	if src == dst {
		panic("topology: Route requires distinct src and dst")
	}
	inner := m.root.route(int(src), int(dst))
	nodes := make([]NodeID, 0, len(inner)+2)
	nodes = append(nodes, src)
	nodes = append(nodes, inner...)
	nodes = append(nodes, dst)
	p, err := m.Net.PathBetween(nodes...)
	if err != nil {
		panic(err) // construction and routing disagree: a bug, not input error
	}
	return p
}

// Validate checks the construction: host count, uniform switch radix and
// strong connectivity.
func (m *MultiFtree) Validate() error {
	g := m.Net
	want := pow(m.N, m.Levels+1) + pow(m.N, m.Levels)
	if g.NumHosts() != want {
		return fmt.Errorf("%s: have %d hosts, want %d", g.Name, g.NumHosts(), want)
	}
	radix := m.SwitchRadix()
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		nd := g.Node(id)
		if nd.Kind != Switch {
			continue
		}
		if r := g.Radix(id); r != radix {
			return fmt.Errorf("%s: switch %q radix %d, want %d", g.Name, nd.Label, r, radix)
		}
	}
	if !g.Connected() {
		return fmt.Errorf("%s: not strongly connected", g.Name)
	}
	return nil
}
