package topology

import (
	"fmt"
	"strconv"
)

// Benes is the Benes rearrangeable network B(k) on N = 2^k terminals
// ([3], [4] in the paper): 2k−1 stages of N/2 2×2 crossing switches,
// built recursively as butterfly — two half-size Benes networks —
// butterfly. Every permutation is routable with edge-disjoint paths (the
// looping algorithm in package routing), making it the minimal-hardware
// rearrangeable baseline the paper's §II contrasts against: N·log N
// switch cost but centralized, rearranging control.
//
// Stage s switch j (0 ≤ j < N/2) has inputs 2j and 2j+1 of stage s and
// outputs feeding stage s+1 according to the butterfly wiring: in the
// outer stages the "distance" is N/2, halving toward the middle and
// doubling back out.
type Benes struct {
	// K is log2 of the terminal count.
	K int
	// N is the terminal count, 2^k.
	N int

	// Net is the underlying directed graph: input terminals, switch
	// nodes per stage, output terminals.
	Net *Network

	inBase, outBase NodeID
	stageBase       []NodeID
}

// Stages reports the stage count 2k−1.
func (b *Benes) Stages() int { return 2*b.K - 1 }

// NewBenes builds B(k) for N = 2^k terminals, k ≥ 1. B(1) is a single
// 2×2 switch.
func NewBenes(k int) *Benes {
	if k < 1 {
		panic(fmt.Sprintf("topology: invalid Benes parameter k=%d", k))
	}
	n := 1 << k
	b := &Benes{K: k, N: n, Net: NewNetwork("benes(" + strconv.Itoa(n) + ")")}
	g := b.Net
	stages := 2*k - 1
	nodes := 2*n + stages*n/2
	g.reserve(nodes, 2*n, 2*n+(stages-1)*n)
	lb := newLabels(nodes)
	b.inBase = 0
	for i := 0; i < n; i++ {
		g.addNode(Host, 0, i, 1, 0)
		lb.str("in").num(i).end()
	}
	b.outBase = NodeID(n)
	for i := 0; i < n; i++ {
		g.addNode(Host, 0, n+i, 0, 1)
		lb.str("out").num(i).end()
	}
	b.stageBase = make([]NodeID, stages)
	for s := 0; s < stages; s++ {
		b.stageBase[s] = NodeID(g.NumNodes())
		for j := 0; j < n/2; j++ {
			g.addNode(Switch, s+1, j, 2, 2)
			lb.str("s").num(s).str(".").num(j).end()
		}
	}
	lb.apply(g)
	// Terminals to/from the outer stages.
	for i := 0; i < n; i++ {
		b.Net.AddLink(b.InTerminal(i), b.SwitchID(0, i/2))
		b.Net.AddLink(b.SwitchID(stages-1, i/2), b.OutTerminal(i))
	}
	// Inter-stage wiring: between stage s and s+1 the network behaves as
	// parallel sub-Benes blocks; within a block of size 2^(d+1) lines,
	// output line x of stage s connects to input line of stage s+1 by
	// the perfect-shuffle of the block (first half / second half split
	// on the way in, inverse on the way out).
	for s := 0; s+1 < stages; s++ {
		for line := 0; line < n; line++ {
			b.Net.AddLink(b.SwitchID(s, line/2), b.SwitchID(s+1, b.nextLine(s, line)/2))
		}
	}
	return b
}

// subShift returns log2 of the sub-block size the wiring between stage s
// and s+1 operates on: the recursion depth d grows toward the middle
// stage and shrinks after it.
func (b *Benes) subShift(s int) int {
	depth := s
	if mirrored := b.Stages() - 2 - s; mirrored < depth {
		depth = mirrored
	}
	return b.K - depth
}

// nextLine maps output line `line` of stage s to the input line of stage
// s+1 it is wired to. Entering the first half of a block means "upper
// sub-network": within a block of size B = 2^t, input line x goes to
// sub-network x mod 2, position x div 2 (unshuffle) while descending, and
// the inverse (shuffle) while ascending after the middle stage.
func (b *Benes) nextLine(s, line int) int {
	t := b.subShift(s) // block size exponent on the descending side
	block := 1 << t
	base := line &^ (block - 1)
	x := line & (block - 1)
	if s < b.Stages()/2 {
		// Descending: unshuffle within the block.
		return base | (x>>1 | (x&1)<<(t-1))
	}
	// Ascending: shuffle within the block (inverse permutation).
	return base | ((x<<1)&(block-1) | x>>(t-1))
}

// InTerminal returns the node ID of input terminal i.
func (b *Benes) InTerminal(i int) NodeID {
	if i < 0 || i >= b.N {
		panic(fmt.Sprintf("topology: Benes input %d out of range", i))
	}
	return b.inBase + NodeID(i)
}

// OutTerminal returns the node ID of output terminal i.
func (b *Benes) OutTerminal(i int) NodeID {
	if i < 0 || i >= b.N {
		panic(fmt.Sprintf("topology: Benes output %d out of range", i))
	}
	return b.outBase + NodeID(i)
}

// SwitchID returns the node ID of switch j in stage s.
func (b *Benes) SwitchID(s, j int) NodeID {
	if s < 0 || s >= b.Stages() || j < 0 || j >= b.N/2 {
		panic(fmt.Sprintf("topology: Benes switch (%d,%d) out of range", s, j))
	}
	return b.stageBase[s] + NodeID(j)
}

// Validate checks stage structure and wiring consistency: every stage's
// inter-stage wiring must be a permutation of the N lines, switch degrees
// must be 2×2, and the network must be connected input→output.
func (b *Benes) Validate() error {
	g := b.Net
	stages := b.Stages()
	wantSwitches := stages * b.N / 2
	if g.NumSwitches() != wantSwitches {
		return fmt.Errorf("%s: have %d switches, want %d", g.Name, g.NumSwitches(), wantSwitches)
	}
	for s := 0; s+1 < stages; s++ {
		seen := make([]bool, b.N)
		for line := 0; line < b.N; line++ {
			nl := b.nextLine(s, line)
			if nl < 0 || nl >= b.N || seen[nl] {
				return fmt.Errorf("%s: stage %d wiring not a permutation (line %d -> %d)", g.Name, s, line, nl)
			}
			seen[nl] = true
		}
	}
	for s := 0; s < stages; s++ {
		for j := 0; j < b.N/2; j++ {
			id := b.SwitchID(s, j)
			if g.OutDegree(id) != 2 || g.InDegree(id) != 2 {
				return fmt.Errorf("%s: switch (%d,%d) degree %d/%d, want 2/2", g.Name, s, j, g.InDegree(id), g.OutDegree(id))
			}
		}
	}
	// Every input must reach every output.
	for i := 0; i < b.N; i += maxInt(1, b.N/4) {
		if _, err := g.ShortestPath(b.InTerminal(i), b.OutTerminal(b.N-1-i)); err != nil {
			return fmt.Errorf("%s: input %d cannot reach output %d", g.Name, i, b.N-1-i)
		}
	}
	return nil
}
