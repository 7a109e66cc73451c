package topology

import (
	"fmt"
	"testing"
)

// XGFT is test code: no program builds one (the design explorer's "xgft"
// family builds the equivalent ftree), but as an independent construction
// it cross-checks FoldedClos in TestXGFTMatchesFoldedClos.

// XGFT is the extended generalized fat tree XGFT(h; m₁..m_h; w₁..w_h) of
// Öhring, Ibel, Das and Kumar [13] — the family the paper cites as the
// broad generalization of fat-trees. Level 0 holds the m₁·m₂···m_h leaf
// processors; each level-i node (1 ≤ i ≤ h) has m_i children and, if
// i < h, w_{i+1} parents. Both the k-ary n-tree (m_i = k, w_i = k with a
// thinner top) and the m-port n-tree are instances up to top-level
// merging; XGFT exposes the per-level arity/width knobs explicitly, which
// is what makes it the standard vehicle for studying cost/bandwidth
// trade-offs like the paper's m ≥ n² condition (a 2-level XGFT with
// m₁ = n, w₂ = m *is* ftree(n+m, r)).
//
// Addressing (following [13]): a level-i node is identified by
// (i, a_h…a_{i+1}, b_i…b_1) where a_j ∈ [0, m_j) locates the subtree the
// node belongs to at each level above it and b_j ∈ [0, w_j) distinguishes
// the replicated routers inside the subtree. Node (i, a, b) connects to
// the level-(i+1) nodes that agree on a_h…a_{i+2} and b_i…b_1's prefix —
// concretely, parent p ∈ [0, w_{i+1}) yields (i+1, a_h…a_{i+2}, p·…) with
// the child's a_{i+1} forgotten and p appended to the b-vector.
type XGFT struct {
	// H is the height (number of switch levels).
	H int
	// M[i] is m_{i+1}: the child count of level-(i+1) nodes.
	M []int
	// W[i] is w_{i+1}: the parent count of level-i nodes.
	W []int

	// Net is the underlying directed graph.
	Net *Network

	lvlBase []NodeID // first node ID of each level (0 = leaves)
	lvlSize []int
}

// NewXGFT builds XGFT(h; m...; w...). len(m) == len(w) == h, all entries
// ≥ 1. w[0] (the leaves' parent count) must be 1 in this implementation:
// each processor attaches to a single first-level switch, matching every
// topology in this repository.
func NewXGFT(h int, m, w []int) *XGFT {
	if h < 1 || len(m) != h || len(w) != h {
		panic(fmt.Sprintf("topology: invalid XGFT(h=%d, |m|=%d, |w|=%d)", h, len(m), len(w)))
	}
	for i := 0; i < h; i++ {
		if m[i] < 1 || w[i] < 1 {
			panic(fmt.Sprintf("topology: XGFT arity m[%d]=%d w[%d]=%d must be >= 1", i, m[i], i, w[i]))
		}
	}
	if w[0] != 1 {
		panic("topology: XGFT with multi-homed processors (w1 > 1) is not supported")
	}
	x := &XGFT{H: h, M: append([]int(nil), m...), W: append([]int(nil), w...),
		Net: NewNetwork(fmt.Sprintf("XGFT(%d;%v;%v)", h, m, w))}

	// Level sizes: level 0 = ∏ m_i leaves; level i = (∏_{j>i} m_j)·(∏_{j≤i} w_j).
	x.lvlBase = make([]NodeID, h+1)
	x.lvlSize = make([]int, h+1)
	for i := 0; i <= h; i++ {
		size := 1
		for j := i; j < h; j++ {
			size *= m[j]
		}
		for j := 0; j < i; j++ {
			size *= w[j]
		}
		x.lvlSize[i] = size
	}
	for i := 0; i <= h; i++ {
		x.lvlBase[i] = NodeID(x.Net.NumNodes())
		kind := Switch
		if i == 0 {
			kind = Host
		}
		for idx := 0; idx < x.lvlSize[i]; idx++ {
			label := fmt.Sprintf("L%d.%d", i, idx)
			if i == 0 {
				label = fmt.Sprintf("p%d", idx)
			}
			x.Net.AddNode(kind, i, idx, label)
		}
	}

	// Wiring. Encode a level-i node index as
	//   idx = A·(∏_{j≤i} w_j) + B
	// where A enumerates (a_h…a_{i+1}) and B enumerates (b_i…b_1). The
	// level-(i+1) parents of (A, B) split A = A'·m_{i+1-1}... : the child
	// forgets digit a_{i+1} (A = A'·m[i] + a) and gains digit b_{i+1} = p:
	//   parentIdx = A'·(∏_{j≤i+1} w_j) + p·(∏_{j≤i} w_j) + B.
	wProd := make([]int, h+1) // wProd[i] = ∏_{j<i} w_j
	wProd[0] = 1
	for i := 0; i < h; i++ {
		wProd[i+1] = wProd[i] * w[i]
	}
	for i := 0; i < h; i++ {
		bMod := wProd[i] // size of the b-digit block at level i (1 at the leaves)
		for idx := 0; idx < x.lvlSize[i]; idx++ {
			aPart := idx / bMod // digits a_h…a_{i+1}
			B := idx % bMod     // digits b_i…b_1
			aHigh := aPart / m[i]
			for p := 0; p < w[i]; p++ {
				parent := aHigh*(bMod*w[i]) + p*bMod + B
				x.Net.AddDuplex(x.lvlBase[i]+NodeID(idx), x.lvlBase[i+1]+NodeID(parent))
			}
		}
	}
	return x
}

// Hosts reports the processor count ∏ m_i.
func (x *XGFT) Hosts() int { return x.lvlSize[0] }

// Switches reports the total router count Σ_{i≥1} level sizes.
func (x *XGFT) Switches() int {
	s := 0
	for i := 1; i <= x.H; i++ {
		s += x.lvlSize[i]
	}
	return s
}

// LevelSize reports the node count of one level (0 = processors).
func (x *XGFT) LevelSize(i int) int {
	if i < 0 || i > x.H {
		panic(fmt.Sprintf("topology: XGFT level %d out of range", i))
	}
	return x.lvlSize[i]
}

// NodeAt returns the node ID of index idx within level i.
func (x *XGFT) NodeAt(i, idx int) NodeID {
	if i < 0 || i > x.H || idx < 0 || idx >= x.lvlSize[i] {
		panic(fmt.Sprintf("topology: XGFT node (%d,%d) out of range", i, idx))
	}
	return x.lvlBase[i] + NodeID(idx)
}

// Validate checks level sizes, degree structure and connectivity.
func (x *XGFT) Validate() error {
	g := x.Net
	for i := 0; i <= x.H; i++ {
		for idx := 0; idx < x.lvlSize[i]; idx++ {
			id := x.NodeAt(i, idx)
			up, down := 0, 0
			for _, l := range g.Out(id) {
				to := g.Node(g.Link(l).To)
				if to.Level > i {
					up++
				} else {
					down++
				}
			}
			wantUp := 0
			if i < x.H {
				wantUp = x.W[i]
			}
			wantDown := 0
			if i > 0 {
				wantDown = x.M[i-1]
			}
			if up != wantUp || down != wantDown {
				return fmt.Errorf("%s: node (%d,%d) has %d up/%d down, want %d/%d",
					g.Name, i, idx, up, down, wantUp, wantDown)
			}
		}
	}
	if !g.Connected() {
		return fmt.Errorf("%s: not strongly connected", g.Name)
	}
	return nil
}

func TestXGFTMatchesFoldedClos(t *testing.T) {
	// XGFT(2; [n, r]; [1, m]) is exactly ftree(n+m, r).
	n, m, r := 3, 9, 7
	x := NewXGFT(2, []int{n, r}, []int{1, m})
	f := NewFoldedClos(n, m, r)
	if x.Hosts() != f.Ports() {
		t.Fatalf("hosts %d vs %d", x.Hosts(), f.Ports())
	}
	if x.Switches() != f.Switches() {
		t.Fatalf("switches %d vs %d", x.Switches(), f.Switches())
	}
	if x.Net.NumLinks() != f.Net.NumLinks() {
		t.Fatalf("links %d vs %d", x.Net.NumLinks(), f.Net.NumLinks())
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if x.LevelSize(1) != r || x.LevelSize(2) != m {
		t.Fatalf("level sizes: %d, %d", x.LevelSize(1), x.LevelSize(2))
	}
}

func TestXGFTThreeLevels(t *testing.T) {
	// XGFT(3; [2,2,2]; [1,2,2]): 8 processors, levels of 4, 4, 4 routers.
	x := NewXGFT(3, []int{2, 2, 2}, []int{1, 2, 2})
	if x.Hosts() != 8 {
		t.Fatalf("hosts = %d", x.Hosts())
	}
	if got := []int{x.LevelSize(1), x.LevelSize(2), x.LevelSize(3)}; got[0] != 4 || got[1] != 4 || got[2] != 4 {
		t.Fatalf("level sizes = %v", got)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every processor reaches every other processor.
	for s := 0; s < x.Hosts(); s++ {
		for d := 0; d < x.Hosts(); d++ {
			if s == d {
				continue
			}
			if _, err := x.Net.ShortestPath(x.NodeAt(0, s), x.NodeAt(0, d)); err != nil {
				t.Fatalf("%d cannot reach %d: %v", s, d, err)
			}
		}
	}
}

func TestXGFTHeterogeneousArities(t *testing.T) {
	// Per-level knobs differ: XGFT(3; [3,2,4]; [1,2,3]).
	x := NewXGFT(3, []int{3, 2, 4}, []int{1, 2, 3})
	if x.Hosts() != 24 {
		t.Fatalf("hosts = %d", x.Hosts())
	}
	// Level sizes: L1 = m2·m3·w1 = 8, L2 = m3·w1·w2 = 8, L3 = w1·w2·w3 = 6.
	if x.LevelSize(1) != 8 || x.LevelSize(2) != 8 || x.LevelSize(3) != 6 {
		t.Fatalf("level sizes: %d %d %d", x.LevelSize(1), x.LevelSize(2), x.LevelSize(3))
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	// Oversubscribed variant: fewer parents shrink the upper levels.
	thin := NewXGFT(3, []int{3, 2, 4}, []int{1, 1, 2})
	if thin.LevelSize(3) >= x.LevelSize(3) {
		t.Fatal("thinner widths should shrink the top level")
	}
	if err := thin.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestXGFTPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"height":    func() { NewXGFT(0, nil, nil) },
		"len":       func() { NewXGFT(2, []int{2}, []int{1, 2}) },
		"arity":     func() { NewXGFT(2, []int{2, 0}, []int{1, 2}) },
		"multihome": func() { NewXGFT(2, []int{2, 2}, []int{2, 2}) },
		"level":     func() { NewXGFT(2, []int{2, 2}, []int{1, 2}).LevelSize(3) },
		"node":      func() { NewXGFT(2, []int{2, 2}, []int{1, 2}).NodeAt(1, 99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
