// Package topology models interconnection-network topologies as directed
// graphs and provides builders for the network families studied in
// Xin Yuan, "On Nonblocking Folded-Clos Networks in Computer Communication
// Environments" (IPPS 2011): folded-Clos (fat-tree) networks ftree(n+m, r),
// three-stage Clos networks Clos(n, m, r), m-port n-trees FT(m, n),
// k-ary n-trees, crossbars, and recursively constructed multi-level
// nonblocking folded-Clos networks.
//
// All links are directed. A bidirectional cable between two switches is
// modeled as a pair of opposite directed links, matching the paper's
// treatment of uplinks and downlinks as separate contention domains.
package topology

import (
	"fmt"
)

// NodeID identifies a node (host or switch) within one Network.
type NodeID int32

// LinkID identifies a directed link within one Network.
type LinkID int32

// NoLink is returned by lookups when no link connects the queried endpoints.
const NoLink LinkID = -1

// NodeKind distinguishes traffic endpoints from switching elements.
type NodeKind uint8

const (
	// Host is a leaf node: a traffic source and destination.
	Host NodeKind = iota
	// Switch is an internal switching element; it never originates or
	// terminates traffic.
	Switch
)

// String returns "host" or "switch".
func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is one vertex of a Network.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Level int    // 0 for hosts; switches use builder-specific levels ≥ 1
	Index int    // index of this node within its (kind, level) group
	Label string // human-readable name used in DOT export and reports
}

// Link is one directed edge of a Network. Traffic flowing From→To contends
// only with other traffic routed over this same directed link.
type Link struct {
	ID   LinkID
	From NodeID
	To   NodeID
}

// Network is a directed multigraph of hosts and switches. The zero value is
// an empty network ready for AddNode/AddLink; builders in this package
// produce fully populated networks with deterministic node and link IDs.
type Network struct {
	Name  string
	nodes []Node
	links []Link

	out   [][]LinkID // outgoing link IDs per node
	in    [][]LinkID // incoming link IDs per node
	byEnd map[endpoints]LinkID

	hosts []NodeID // all Host nodes in ID order
}

type endpoints struct {
	from, to NodeID
}

// NewNetwork returns an empty named network.
func NewNetwork(name string) *Network {
	return &Network{
		Name:  name,
		byEnd: make(map[endpoints]LinkID),
	}
}

// AddNode appends a node and returns its ID. Level and index are recorded
// verbatim; label may be empty, in which case a default is synthesized.
func (g *Network) AddNode(kind NodeKind, level, index int, label string) NodeID {
	id := NodeID(len(g.nodes))
	if label == "" {
		label = fmt.Sprintf("%s-%d-%d", kind, level, index)
	}
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Level: level, Index: index, Label: label})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if kind == Host {
		g.hosts = append(g.hosts, id)
	}
	return id
}

// AddLink appends a directed link from→to and returns its ID. Adding two
// links with identical endpoints is rejected: every topology in this
// repository uses at most one cable between any ordered pair, and silently
// aliasing parallel links would corrupt contention accounting.
func (g *Network) AddLink(from, to NodeID) LinkID {
	if err := g.checkNode(from); err != nil {
		panic(err)
	}
	if err := g.checkNode(to); err != nil {
		panic(err)
	}
	if from == to {
		panic(fmt.Sprintf("topology: self-loop on node %d", from))
	}
	key := endpoints{from, to}
	if _, dup := g.byEnd[key]; dup {
		panic(fmt.Sprintf("topology: duplicate link %d->%d", from, to))
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.byEnd[key] = id
	return id
}

// AddDuplex adds the two directed links modeling one bidirectional cable and
// returns (a→b, b→a).
func (g *Network) AddDuplex(a, b NodeID) (LinkID, LinkID) {
	return g.AddLink(a, b), g.AddLink(b, a)
}

func (g *Network) checkNode(id NodeID) error {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("topology: node %d out of range [0,%d)", id, len(g.nodes))
	}
	return nil
}

// NumNodes reports the total number of nodes (hosts plus switches).
func (g *Network) NumNodes() int { return len(g.nodes) }

// NumLinks reports the total number of directed links.
func (g *Network) NumLinks() int { return len(g.links) }

// NumHosts reports the number of Host nodes.
func (g *Network) NumHosts() int { return len(g.hosts) }

// NumSwitches reports the number of Switch nodes.
func (g *Network) NumSwitches() int { return len(g.nodes) - len(g.hosts) }

// Node returns the node with the given ID. It panics on out-of-range IDs,
// which always indicate a programming error rather than a runtime condition.
func (g *Network) Node(id NodeID) Node {
	if err := g.checkNode(id); err != nil {
		panic(err)
	}
	return g.nodes[id]
}

// Link returns the link with the given ID, panicking on out-of-range IDs.
func (g *Network) Link(id LinkID) Link {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Sprintf("topology: link %d out of range [0,%d)", id, len(g.links)))
	}
	return g.links[id]
}

// Out returns the IDs of links leaving node id, in insertion order. The
// returned slice is owned by the network and must not be modified.
func (g *Network) Out(id NodeID) []LinkID {
	if err := g.checkNode(id); err != nil {
		panic(err)
	}
	return g.out[id]
}

// In returns the IDs of links entering node id, in insertion order. The
// returned slice is owned by the network and must not be modified.
func (g *Network) In(id NodeID) []LinkID {
	if err := g.checkNode(id); err != nil {
		panic(err)
	}
	return g.in[id]
}

// OutDegree reports the number of links leaving node id.
func (g *Network) OutDegree(id NodeID) int { return len(g.Out(id)) }

// InDegree reports the number of links entering node id.
func (g *Network) InDegree(id NodeID) int { return len(g.In(id)) }

// Radix reports the number of distinct neighbors of node id, i.e. the port
// count of the physical device when every neighbor is cabled with one duplex
// cable.
func (g *Network) Radix(id NodeID) int {
	seen := make(map[NodeID]struct{}, len(g.Out(id))+len(g.In(id)))
	for _, l := range g.Out(id) {
		seen[g.links[l].To] = struct{}{}
	}
	for _, l := range g.In(id) {
		seen[g.links[l].From] = struct{}{}
	}
	return len(seen)
}

// FindLink returns the ID of the directed link from→to, or NoLink when the
// nodes are not adjacent in that direction.
func (g *Network) FindLink(from, to NodeID) LinkID {
	if id, ok := g.byEnd[endpoints{from, to}]; ok {
		return id
	}
	return NoLink
}

// Path is a route through the network: Nodes has one more element than
// Links, Links[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes []NodeID
	Links []LinkID
}

// Len reports the number of links (hops) on the path.
func (p Path) Len() int { return len(p.Links) }

// Valid reports whether the path is internally consistent within g: each
// link must exist and connect the adjacent node pair.
func (p Path) Valid(g *Network) bool {
	if len(p.Nodes) != len(p.Links)+1 {
		return false
	}
	if len(p.Nodes) == 0 {
		return false
	}
	for i, l := range p.Links {
		if l < 0 || int(l) >= len(g.links) {
			return false
		}
		lk := g.links[l]
		if lk.From != p.Nodes[i] || lk.To != p.Nodes[i+1] {
			return false
		}
	}
	return true
}

// PathBetween assembles a Path from a node sequence, resolving each hop's
// link ID. It returns an error if any consecutive pair is not adjacent.
func (g *Network) PathBetween(nodes ...NodeID) (Path, error) {
	if len(nodes) == 0 {
		return Path{}, fmt.Errorf("topology: empty path")
	}
	p := Path{Nodes: nodes, Links: make([]LinkID, 0, len(nodes)-1)}
	for i := 0; i+1 < len(nodes); i++ {
		l := g.FindLink(nodes[i], nodes[i+1])
		if l == NoLink {
			return Path{}, fmt.Errorf("topology: nodes %d and %d are not adjacent", nodes[i], nodes[i+1])
		}
		p.Links = append(p.Links, l)
	}
	return p, nil
}

// ShortestPath returns one minimum-hop path from src to dst found by BFS,
// breaking ties toward lower node IDs so results are deterministic. It
// returns an error when dst is unreachable.
func (g *Network) ShortestPath(src, dst NodeID) (Path, error) {
	if err := g.checkNode(src); err != nil {
		return Path{}, err
	}
	if err := g.checkNode(dst); err != nil {
		return Path{}, err
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, nil
	}
	prev := make([]LinkID, len(g.nodes))
	for i := range prev {
		prev[i] = NoLink
	}
	queue := []NodeID{src}
	visited := make([]bool, len(g.nodes))
	visited[src] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range g.out[cur] {
			to := g.links[l].To
			if visited[to] {
				continue
			}
			visited[to] = true
			prev[to] = l
			if to == dst {
				return g.tracePath(src, dst, prev), nil
			}
			queue = append(queue, to)
		}
	}
	return Path{}, fmt.Errorf("topology: no path from %d to %d", src, dst)
}

func (g *Network) tracePath(src, dst NodeID, prev []LinkID) Path {
	var rlinks []LinkID
	cur := dst
	for cur != src {
		l := prev[cur]
		rlinks = append(rlinks, l)
		cur = g.links[l].From
	}
	p := Path{Nodes: make([]NodeID, 0, len(rlinks)+1), Links: make([]LinkID, 0, len(rlinks))}
	p.Nodes = append(p.Nodes, src)
	for i := len(rlinks) - 1; i >= 0; i-- {
		p.Links = append(p.Links, rlinks[i])
		p.Nodes = append(p.Nodes, g.links[rlinks[i]].To)
	}
	return p
}

// Connected reports whether every node can reach every other node following
// directed links. All topologies built by this package are connected.
func (g *Network) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	// A directed graph is strongly connected iff one node reaches all
	// nodes along outgoing links and is reached by all nodes (BFS along
	// incoming links).
	return g.bfsCount(0, true) == len(g.nodes) && g.bfsCount(0, false) == len(g.nodes)
}

func (g *Network) bfsCount(start NodeID, forward bool) int {
	visited := make([]bool, len(g.nodes))
	visited[start] = true
	queue := []NodeID{start}
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var adj []LinkID
		if forward {
			adj = g.out[cur]
		} else {
			adj = g.in[cur]
		}
		for _, l := range adj {
			next := g.links[l].To
			if !forward {
				next = g.links[l].From
			}
			if !visited[next] {
				visited[next] = true
				count++
				queue = append(queue, next)
			}
		}
	}
	return count
}
