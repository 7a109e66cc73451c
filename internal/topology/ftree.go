package topology

import "fmt"

// FoldedClos is the two-level folded-Clos (fat-tree) network ftree(n+m, r)
// of the paper: r bottom-level switches, each with n hosts below and one
// uplink to each of m top-level switches; m top-level switches of radix r.
// It supports r·n hosts and is logically equivalent to the three-stage
// Clos(n, m, r) network with input/output switch pairs merged.
//
// Node numbering follows §III of the paper: top-level switches 0..m−1,
// bottom-level switches 0..r−1, hosts 0..r·n−1 where host (v, k) = v·n+k
// is the k-th leaf of bottom switch v.
type FoldedClos struct {
	// N is the number of hosts per bottom switch.
	N int
	// M is the number of top-level switches (uplinks per bottom switch).
	M int
	// R is the number of bottom-level switches (radix of top switches).
	R int

	// Net is the underlying directed graph.
	Net *Network

	hostBase   NodeID
	bottomBase NodeID
	topBase    NodeID

	hostLinkBase LinkID // host↔bottom duplex pairs
	trunkBase    LinkID // bottom↔top duplex pairs
}

// NewFoldedClos builds ftree(n+m, r). It panics when any parameter is
// non-positive; use Validate after construction for structural self-checks.
func NewFoldedClos(n, m, r int) *FoldedClos {
	if n <= 0 || m <= 0 || r <= 0 {
		panic(fmt.Sprintf("topology: invalid ftree(%d+%d, %d): parameters must be positive", n, m, r))
	}
	f := &FoldedClos{
		N:   n,
		M:   m,
		R:   r,
		Net: NewNetwork(fmt.Sprintf("ftree(%d+%d,%d)", n, m, r)),
	}
	// Hosts first so that host IDs coincide with the paper's leaf numbers.
	f.hostBase = 0
	for v := 0; v < r; v++ {
		for k := 0; k < n; k++ {
			f.Net.AddNode(Host, 0, v*n+k, fmt.Sprintf("h%d.%d", v, k))
		}
	}
	f.bottomBase = NodeID(r * n)
	for v := 0; v < r; v++ {
		f.Net.AddNode(Switch, 1, v, fmt.Sprintf("b%d", v))
	}
	f.topBase = f.bottomBase + NodeID(r)
	for t := 0; t < m; t++ {
		f.Net.AddNode(Switch, 2, t, fmt.Sprintf("t%d", t))
	}

	f.hostLinkBase = 0
	for v := 0; v < r; v++ {
		for k := 0; k < n; k++ {
			f.Net.AddDuplex(f.HostID(v, k), f.Bottom(v))
		}
	}
	f.trunkBase = LinkID(2 * r * n)
	for v := 0; v < r; v++ {
		for t := 0; t < m; t++ {
			f.Net.AddDuplex(f.Bottom(v), f.Top(t))
		}
	}
	return f
}

// Ports reports the number of hosts the network supports (r·n).
func (f *FoldedClos) Ports() int { return f.R * f.N }

// Switches reports the total switch count (r bottom + m top).
func (f *FoldedClos) Switches() int { return f.R + f.M }

// HostID returns the node ID of host (v, k): leaf k of bottom switch v.
func (f *FoldedClos) HostID(v, k int) NodeID {
	if v < 0 || v >= f.R || k < 0 || k >= f.N {
		panic(fmt.Sprintf("topology: host (%d,%d) out of range in %s", v, k, f.Net.Name))
	}
	return f.hostBase + NodeID(v*f.N+k)
}

// Bottom returns the node ID of bottom-level switch v.
func (f *FoldedClos) Bottom(v int) NodeID {
	if v < 0 || v >= f.R {
		panic(fmt.Sprintf("topology: bottom switch %d out of range in %s", v, f.Net.Name))
	}
	return f.bottomBase + NodeID(v)
}

// Top returns the node ID of top-level switch t.
func (f *FoldedClos) Top(t int) NodeID {
	if t < 0 || t >= f.M {
		panic(fmt.Sprintf("topology: top switch %d out of range in %s", t, f.Net.Name))
	}
	return f.topBase + NodeID(t)
}

// IsHost reports whether id is a host node of this network.
func (f *FoldedClos) IsHost(id NodeID) bool {
	return id >= f.hostBase && id < f.hostBase+NodeID(f.R*f.N)
}

// HostSwitch returns the bottom switch index v of host id.
func (f *FoldedClos) HostSwitch(id NodeID) int {
	if !f.IsHost(id) {
		panic(fmt.Sprintf("topology: node %d is not a host in %s", id, f.Net.Name))
	}
	return int(id-f.hostBase) / f.N
}

// HostLocal returns the local leaf index k of host id within its switch.
func (f *FoldedClos) HostLocal(id NodeID) int {
	if !f.IsHost(id) {
		panic(fmt.Sprintf("topology: node %d is not a host in %s", id, f.Net.Name))
	}
	return int(id-f.hostBase) % f.N
}

// HostUpLink returns the directed link host (v, k) → bottom switch v.
func (f *FoldedClos) HostUpLink(v, k int) LinkID {
	f.HostID(v, k) // range check
	return f.hostLinkBase + LinkID(2*(v*f.N+k))
}

// HostDownLink returns the directed link bottom switch v → host (v, k).
func (f *FoldedClos) HostDownLink(v, k int) LinkID {
	return f.HostUpLink(v, k) + 1
}

// UpLink returns the directed trunk link bottom switch v → top switch t.
func (f *FoldedClos) UpLink(v, t int) LinkID {
	if v < 0 || v >= f.R || t < 0 || t >= f.M {
		panic(fmt.Sprintf("topology: trunk (%d,%d) out of range in %s", v, t, f.Net.Name))
	}
	return f.trunkBase + LinkID(2*(v*f.M+t))
}

// DownLink returns the directed trunk link top switch t → bottom switch v.
func (f *FoldedClos) DownLink(t, v int) LinkID {
	return f.UpLink(v, t) + 1
}

// RouteVia returns the unique path for SD pair (src, dst) through top-level
// switch t, or the intra-switch path when src and dst share a bottom switch
// (in which case t is ignored). src and dst must be distinct hosts.
func (f *FoldedClos) RouteVia(src, dst NodeID, t int) Path {
	if src == dst {
		panic("topology: RouteVia requires distinct src and dst")
	}
	return Path{Links: f.AppendRouteVia(nil, int(src-f.hostBase), int(dst-f.hostBase), t)}
}

// AppendRouteVia appends RouteVia's links for the pair of distinct host
// indices (src, dst) to buf: the one place that knows a two-level route.
func (f *FoldedClos) AppendRouteVia(buf []LinkID, src, dst, t int) []LinkID {
	sv, sk := src/f.N, src%f.N
	dv, dk := dst/f.N, dst%f.N
	if sv == dv {
		return append(buf, f.HostUpLink(sv, sk), f.HostDownLink(dv, dk))
	}
	return append(buf, f.HostUpLink(sv, sk), f.UpLink(sv, t), f.DownLink(t, dv), f.HostDownLink(dv, dk))
}

// Validate performs structural self-checks: port budgets of every switch,
// link count, arithmetic link-lookup consistency and strong connectivity.
// It returns the first inconsistency found, or nil.
func (f *FoldedClos) Validate() error {
	g := f.Net
	wantLinks := 2*f.R*f.N + 2*f.R*f.M
	if g.NumLinks() != wantLinks {
		return fmt.Errorf("%s: have %d links, want %d", g.Name, g.NumLinks(), wantLinks)
	}
	if g.NumHosts() != f.Ports() {
		return fmt.Errorf("%s: have %d hosts, want %d", g.Name, g.NumHosts(), f.Ports())
	}
	if g.NumSwitches() != f.Switches() {
		return fmt.Errorf("%s: have %d switches, want %d", g.Name, g.NumSwitches(), f.Switches())
	}
	for v := 0; v < f.R; v++ {
		b := f.Bottom(v)
		if d := g.OutDegree(b); d != f.N+f.M {
			return fmt.Errorf("%s: bottom switch %d out-degree %d, want %d", g.Name, v, d, f.N+f.M)
		}
		if d := g.InDegree(b); d != f.N+f.M {
			return fmt.Errorf("%s: bottom switch %d in-degree %d, want %d", g.Name, v, d, f.N+f.M)
		}
	}
	for t := 0; t < f.M; t++ {
		top := f.Top(t)
		if d := g.OutDegree(top); d != f.R {
			return fmt.Errorf("%s: top switch %d out-degree %d, want %d", g.Name, t, d, f.R)
		}
		if d := g.InDegree(top); d != f.R {
			return fmt.Errorf("%s: top switch %d in-degree %d, want %d", g.Name, t, d, f.R)
		}
	}
	// Arithmetic link IDs must agree with graph adjacency.
	for v := 0; v < f.R; v++ {
		for k := 0; k < f.N; k++ {
			if got := g.FindLink(f.HostID(v, k), f.Bottom(v)); got != f.HostUpLink(v, k) {
				return fmt.Errorf("%s: host uplink (%d,%d) mismatch: %d vs %d", g.Name, v, k, got, f.HostUpLink(v, k))
			}
			if got := g.FindLink(f.Bottom(v), f.HostID(v, k)); got != f.HostDownLink(v, k) {
				return fmt.Errorf("%s: host downlink (%d,%d) mismatch", g.Name, v, k)
			}
		}
		for t := 0; t < f.M; t++ {
			if got := g.FindLink(f.Bottom(v), f.Top(t)); got != f.UpLink(v, t) {
				return fmt.Errorf("%s: uplink (%d,%d) mismatch", g.Name, v, t)
			}
			if got := g.FindLink(f.Top(t), f.Bottom(v)); got != f.DownLink(t, v) {
				return fmt.Errorf("%s: downlink (%d,%d) mismatch", g.Name, t, v)
			}
		}
	}
	if !g.Connected() {
		return fmt.Errorf("%s: not strongly connected", g.Name)
	}
	return nil
}
