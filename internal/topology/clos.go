package topology

import (
	"fmt"
	"strconv"
)

// Clos is the classic three-stage unidirectional Clos network Clos(n, m, r)
// of Fig. 1(a): r input switches of size n×m, m middle switches of size r×r,
// and r output switches of size m×n. Traffic enters at one of r·n input
// terminals, crosses exactly one middle switch, and leaves at one of r·n
// output terminals. The folded-Clos ftree(n+m, r) is the one-sided version
// obtained by merging input switch i with output switch i.
type Clos struct {
	// N is the number of terminals per input (and output) switch.
	N int
	// M is the number of middle-stage switches.
	M int
	// R is the number of input switches (= number of output switches).
	R int

	// Net is the underlying directed graph. All links are unidirectional,
	// matching the telephone-switching model the classic nonblocking
	// conditions (strict: m ≥ 2n−1, rearrangeable: m ≥ n) were proven in.
	Net *Network

	inTermBase  NodeID
	outTermBase NodeID
	inSwBase    NodeID
	midSwBase   NodeID
	outSwBase   NodeID

	ingressBase LinkID // input terminal → input switch
	upBase      LinkID // input switch → middle switch
	downBase    LinkID // middle switch → output switch
	egressBase  LinkID // output switch → output terminal
}

// NewClos builds Clos(n, m, r).
func NewClos(n, m, r int) *Clos {
	if n <= 0 || m <= 0 || r <= 0 {
		panic(fmt.Sprintf("topology: invalid Clos(%d,%d,%d): parameters must be positive", n, m, r))
	}
	c := &Clos{N: n, M: m, R: r, Net: NewNetwork("Clos(" + strconv.Itoa(n) + "," + strconv.Itoa(m) + "," + strconv.Itoa(r) + ")")}
	g := c.Net
	nodes := 2*r*n + 2*r + m
	g.reserve(nodes, 2*r*n, 2*r*(n+m))
	lb := newLabels(nodes)
	c.inTermBase = 0
	for i := 0; i < r*n; i++ {
		g.addNode(Host, 0, i, 1, 0)
		lb.str("in").num(i).end()
	}
	c.outTermBase = NodeID(r * n)
	for i := 0; i < r*n; i++ {
		g.addNode(Host, 0, r*n+i, 0, 1)
		lb.str("out").num(i).end()
	}
	c.inSwBase = NodeID(2 * r * n)
	for i := 0; i < r; i++ {
		g.addNode(Switch, 1, i, m, n)
		lb.str("I").num(i).end()
	}
	c.midSwBase = c.inSwBase + NodeID(r)
	for j := 0; j < m; j++ {
		g.addNode(Switch, 2, j, r, r)
		lb.str("M").num(j).end()
	}
	c.outSwBase = c.midSwBase + NodeID(m)
	for i := 0; i < r; i++ {
		g.addNode(Switch, 3, i, n, m)
		lb.str("O").num(i).end()
	}
	lb.apply(g)

	c.ingressBase = 0
	for i := 0; i < r; i++ {
		for k := 0; k < n; k++ {
			c.Net.AddLink(c.InTerminal(i*n+k), c.InputSwitch(i))
		}
	}
	c.upBase = LinkID(r * n)
	for i := 0; i < r; i++ {
		for j := 0; j < m; j++ {
			c.Net.AddLink(c.InputSwitch(i), c.MiddleSwitch(j))
		}
	}
	c.downBase = c.upBase + LinkID(r*m)
	for j := 0; j < m; j++ {
		for i := 0; i < r; i++ {
			c.Net.AddLink(c.MiddleSwitch(j), c.OutputSwitch(i))
		}
	}
	c.egressBase = c.downBase + LinkID(r*m)
	for i := 0; i < r; i++ {
		for k := 0; k < n; k++ {
			c.Net.AddLink(c.OutputSwitch(i), c.OutTerminal(i*n+k))
		}
	}
	return c
}

// Ports reports the number of input terminals (= output terminals), r·n.
func (c *Clos) Ports() int { return c.R * c.N }

// InTerminal returns the node ID of input terminal i, 0 ≤ i < r·n.
func (c *Clos) InTerminal(i int) NodeID {
	if i < 0 || i >= c.R*c.N {
		panic(fmt.Sprintf("topology: input terminal %d out of range in %s", i, c.Net.Name))
	}
	return c.inTermBase + NodeID(i)
}

// OutTerminal returns the node ID of output terminal i, 0 ≤ i < r·n.
func (c *Clos) OutTerminal(i int) NodeID {
	if i < 0 || i >= c.R*c.N {
		panic(fmt.Sprintf("topology: output terminal %d out of range in %s", i, c.Net.Name))
	}
	return c.outTermBase + NodeID(i)
}

// InputSwitch returns the node ID of input-stage switch i, 0 ≤ i < r.
func (c *Clos) InputSwitch(i int) NodeID {
	if i < 0 || i >= c.R {
		panic(fmt.Sprintf("topology: input switch %d out of range in %s", i, c.Net.Name))
	}
	return c.inSwBase + NodeID(i)
}

// MiddleSwitch returns the node ID of middle-stage switch j, 0 ≤ j < m.
func (c *Clos) MiddleSwitch(j int) NodeID {
	if j < 0 || j >= c.M {
		panic(fmt.Sprintf("topology: middle switch %d out of range in %s", j, c.Net.Name))
	}
	return c.midSwBase + NodeID(j)
}

// OutputSwitch returns the node ID of output-stage switch i, 0 ≤ i < r.
func (c *Clos) OutputSwitch(i int) NodeID {
	if i < 0 || i >= c.R {
		panic(fmt.Sprintf("topology: output switch %d out of range in %s", i, c.Net.Name))
	}
	return c.outSwBase + NodeID(i)
}

// IngressLink returns the link input terminal i → its input switch.
func (c *Clos) IngressLink(i int) LinkID {
	c.InTerminal(i)
	return c.ingressBase + LinkID(i)
}

// UpLink returns the link input switch i → middle switch j.
func (c *Clos) UpLink(i, j int) LinkID {
	c.InputSwitch(i)
	c.MiddleSwitch(j)
	return c.upBase + LinkID(i*c.M+j)
}

// DownLink returns the link middle switch j → output switch i.
func (c *Clos) DownLink(j, i int) LinkID {
	c.MiddleSwitch(j)
	c.OutputSwitch(i)
	return c.downBase + LinkID(j*c.R+i)
}

// EgressLink returns the link output switch → output terminal i.
func (c *Clos) EgressLink(i int) LinkID {
	c.OutTerminal(i)
	return c.egressBase + LinkID(i)
}

// RouteVia returns the unique path from input terminal s to output terminal
// d through middle switch j. Unlike the folded network, every connection
// crosses the middle stage, including ones whose endpoints share a switch
// index.
func (c *Clos) RouteVia(s, d, j int) Path {
	si := s / c.N
	di := d / c.N
	return Path{Links: []LinkID{c.IngressLink(s), c.UpLink(si, j), c.DownLink(j, di), c.EgressLink(d)}}
}

// Validate performs structural self-checks and returns the first
// inconsistency found, or nil.
func (c *Clos) Validate() error {
	g := c.Net
	wantLinks := 2*c.R*c.N + 2*c.R*c.M
	if g.NumLinks() != wantLinks {
		return fmt.Errorf("%s: have %d links, want %d", g.Name, g.NumLinks(), wantLinks)
	}
	for i := 0; i < c.R; i++ {
		if d := g.OutDegree(c.InputSwitch(i)); d != c.M {
			return fmt.Errorf("%s: input switch %d out-degree %d, want m=%d", g.Name, i, d, c.M)
		}
		if d := g.InDegree(c.InputSwitch(i)); d != c.N {
			return fmt.Errorf("%s: input switch %d in-degree %d, want n=%d", g.Name, i, d, c.N)
		}
		if d := g.OutDegree(c.OutputSwitch(i)); d != c.N {
			return fmt.Errorf("%s: output switch %d out-degree %d, want n=%d", g.Name, i, d, c.N)
		}
		if d := g.InDegree(c.OutputSwitch(i)); d != c.M {
			return fmt.Errorf("%s: output switch %d in-degree %d, want m=%d", g.Name, i, d, c.M)
		}
	}
	for j := 0; j < c.M; j++ {
		if d := g.OutDegree(c.MiddleSwitch(j)); d != c.R {
			return fmt.Errorf("%s: middle switch %d out-degree %d, want r=%d", g.Name, j, d, c.R)
		}
		if d := g.InDegree(c.MiddleSwitch(j)); d != c.R {
			return fmt.Errorf("%s: middle switch %d in-degree %d, want r=%d", g.Name, j, d, c.R)
		}
	}
	for i := 0; i < c.R; i++ {
		for j := 0; j < c.M; j++ {
			if got := g.FindLink(c.InputSwitch(i), c.MiddleSwitch(j)); got != c.UpLink(i, j) {
				return fmt.Errorf("%s: uplink (%d,%d) mismatch", g.Name, i, j)
			}
			if got := g.FindLink(c.MiddleSwitch(j), c.OutputSwitch(i)); got != c.DownLink(j, i) {
				return fmt.Errorf("%s: downlink (%d,%d) mismatch", g.Name, j, i)
			}
		}
	}
	return nil
}

// Crossbar is a single N×N switch connecting N hosts: the reference
// interconnect the paper compares against ("such an interconnect behaves
// like a crossbar switch"). Any permutation is contention-free by
// construction since each host has a dedicated duplex link to the switch.
type Crossbar struct {
	// N is the number of hosts.
	N int
	// Net is the underlying directed graph.
	Net *Network
}

// NewCrossbar builds an N-port crossbar.
func NewCrossbar(n int) *Crossbar {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid crossbar size %d", n))
	}
	x := &Crossbar{N: n, Net: NewNetwork("crossbar(" + strconv.Itoa(n) + ")")}
	g := x.Net
	g.reserve(n+1, n, 2*n)
	lb := newLabels(n + 1)
	for i := 0; i < n; i++ {
		g.addNode(Host, 0, i, 1, 1)
		lb.str("h").num(i).end()
	}
	sw := g.addNode(Switch, 1, 0, n, n)
	lb.str("xbar").end()
	lb.apply(g)
	for i := 0; i < n; i++ {
		x.Net.AddDuplex(x.HostID(i), sw)
	}
	return x
}

// HostID returns the node ID of host i.
func (x *Crossbar) HostID(i int) NodeID {
	if i < 0 || i >= x.N {
		panic(fmt.Sprintf("topology: crossbar host %d out of range", i))
	}
	return NodeID(i)
}

// Route returns the two-hop path from host s to host d through the switch.
func (x *Crossbar) Route(s, d int) Path {
	x.HostID(s)
	x.HostID(d)
	return Path{Links: []LinkID{LinkID(2 * s), LinkID(2*d + 1)}}
}
