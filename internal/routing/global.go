package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// EdgeColorBipartite colors the edges of a bipartite multigraph with Δ
// colors, where Δ is the maximum vertex degree — the constructive form of
// König's edge-coloring theorem. edges[i] = (u, v) with u a left vertex in
// [0, nLeft) and v a right vertex in [0, nRight). The returned slice maps
// each edge to a color in [0, Δ); edges sharing a vertex get distinct
// colors.
//
// This is the engine of centralized rearrangeable routing: treating source
// switches as left vertices, destination switches as right vertices and SD
// pairs as edges, a coloring with Δ ≤ n colors assigns each pair a middle
// (top) switch such that no two pairs share an uplink or downlink —
// realizing the classic Benes condition m ≥ n, which requires exactly the
// global pattern knowledge that distributed computer networks lack (§II).
func EdgeColorBipartite(nLeft, nRight int, edges [][2]int) ([]int, error) {
	deg := 0
	degL := make([]int, nLeft)
	degR := make([]int, nRight)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= nLeft || v < 0 || v >= nRight {
			return nil, fmt.Errorf("routing: edge (%d,%d) out of range (%d left, %d right)", u, v, nLeft, nRight)
		}
		degL[u]++
		degR[v]++
		if degL[u] > deg {
			deg = degL[u]
		}
		if degR[v] > deg {
			deg = degR[v]
		}
	}
	if deg == 0 {
		return make([]int, len(edges)), nil
	}

	// tableL[u][c] / tableR[v][c]: edge currently colored c at the vertex,
	// or −1.
	tableL := make([][]int, nLeft)
	for u := range tableL {
		tableL[u] = newFilled(deg, -1)
	}
	tableR := make([][]int, nRight)
	for v := range tableR {
		tableR[v] = newFilled(deg, -1)
	}
	color := newFilled(len(edges), -1)

	freeAt := func(table []int) int {
		for c, e := range table {
			if e == -1 {
				return c
			}
		}
		return -1
	}

	for i, e := range edges {
		u, v := e[0], e[1]
		a := freeAt(tableL[u])
		b := freeAt(tableR[v])
		if a == -1 || b == -1 {
			return nil, fmt.Errorf("routing: internal error: no free color at edge %d", i)
		}
		if tableR[v][a] == -1 {
			// a free at both endpoints.
			color[i] = a
			tableL[u][a], tableR[v][a] = i, i
			continue
		}
		// Flip the a/b alternating path starting at v. In a bipartite
		// graph the path cannot reach u (u has no a-edge, yet every
		// left-side vertex on the path is entered over an a-edge), so
		// flipping frees color a at v without disturbing u.
		var pathEdges []int
		cur, curLeft, want := v, false, a
		for {
			var eid int
			if curLeft {
				eid = tableL[cur][want]
			} else {
				eid = tableR[cur][want]
			}
			if eid == -1 {
				break
			}
			pathEdges = append(pathEdges, eid)
			if curLeft {
				cur = edges[eid][1]
			} else {
				cur = edges[eid][0]
			}
			curLeft = !curLeft
			if want == a {
				want = b
			} else {
				want = a
			}
		}
		for _, eid := range pathEdges {
			old := color[eid]
			nw := a
			if old == a {
				nw = b
			}
			eu, ev := edges[eid][0], edges[eid][1]
			tableL[eu][old], tableR[ev][old] = -1, -1
			color[eid] = nw
		}
		for _, eid := range pathEdges {
			eu, ev := edges[eid][0], edges[eid][1]
			c := color[eid]
			if tableL[eu][c] != -1 || tableR[ev][c] != -1 {
				return nil, fmt.Errorf("routing: internal error: flip produced a clash at edge %d", eid)
			}
			tableL[eu][c], tableR[ev][c] = eid, eid
		}
		if tableL[u][a] != -1 || tableR[v][a] != -1 {
			return nil, fmt.Errorf("routing: internal error: color %d still busy after flip", a)
		}
		color[i] = a
		tableL[u][a], tableR[v][a] = i, i
	}
	return color, nil
}

func newFilled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// GlobalRearrangeable is the centralized routing baseline for
// ftree(n+m, r): given the whole permutation, it edge-colors the
// switch-level demand graph and uses the color as the top-switch index.
// Any permutation is routed contention-free whenever m ≥ n — the
// rearrangeably-nonblocking condition that holds only under centralized
// control, against which the paper's distributed m ≥ n² (deterministic)
// and O(n^(2−1/(2(c+1)))) (local adaptive) conditions are contrasted.
type GlobalRearrangeable struct {
	F *topology.FoldedClos
}

// NewGlobalRearrangeable builds the centralized router.
func NewGlobalRearrangeable(f *topology.FoldedClos) *GlobalRearrangeable {
	return &GlobalRearrangeable{F: f}
}

// Name returns "global-rearrangeable".
func (r *GlobalRearrangeable) Name() string { return "global-rearrangeable" }

// Route colors the pattern's switch-level bipartite multigraph and assigns
// each cross-switch pair the top switch named by its color. It fails when
// the pattern needs more colors than the network has top switches (m < n
// for full permutations).
func (r *GlobalRearrangeable) Route(p *permutation.Permutation) (*Assignment, error) {
	if p.N() != r.F.Ports() {
		return nil, fmt.Errorf("routing: pattern over %d endpoints, network has %d", p.N(), r.F.Ports())
	}
	pairs := p.Pairs()
	n := r.F.N
	var cross []int
	edges := make([][2]int, 0, len(pairs))
	for i, pr := range pairs {
		if pr.Src != pr.Dst && pr.Src/n != pr.Dst/n {
			cross = append(cross, i)
			edges = append(edges, [2]int{pr.Src / n, pr.Dst / n})
		}
	}
	colors, err := EdgeColorBipartite(r.F.R, r.F.R, edges)
	if err != nil {
		return nil, err
	}
	used := 0
	for _, c := range colors {
		if c+1 > used {
			used = c + 1
		}
	}
	if used > r.F.M {
		return nil, fmt.Errorf("routing: pattern needs %d top switches, network has m=%d", used, r.F.M)
	}
	a := &Assignment{Net: r.F.Net, Pairs: pairs, PathSets: make([][]topology.Path, len(pairs)), TopSwitchesUsed: used}
	for i, pr := range pairs {
		if pr.Src == pr.Dst {
			a.PathSets[i] = []topology.Path{{}}
		} else if pr.Src/n == pr.Dst/n {
			a.PathSets[i] = []topology.Path{r.F.RouteVia(topology.NodeID(pr.Src), topology.NodeID(pr.Dst), 0)}
		}
	}
	for k, i := range cross {
		pr := a.Pairs[i]
		a.PathSets[i] = []topology.Path{r.F.RouteVia(topology.NodeID(pr.Src), topology.NodeID(pr.Dst), colors[k])}
	}
	return a, nil
}
