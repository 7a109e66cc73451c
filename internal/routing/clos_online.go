package routing

import (
	"fmt"

	"repro/internal/topology"
)

// ClosPolicy selects the middle switch for a new connection in the online
// circuit-switching model of the classic literature (§II): connections are
// set up and torn down one at a time by a centralized controller that sees
// the current state but not the future.
type ClosPolicy uint8

const (
	// FirstFit picks the lowest-numbered feasible middle switch. Clos
	// [2]: with m ≥ 2n−1 no sequence of setups and teardowns can block
	// (strict-sense nonblocking); with m = 2n−2 an adversarial sequence
	// blocks.
	FirstFit ClosPolicy = iota
	// Packing picks the feasible middle switch already carrying the most
	// connections (ties toward lower index) — the wide-sense strategy of
	// Yang and Wang [16].
	Packing
	// LeastLoaded picks the feasible middle switch with the fewest
	// connections — the intuitive but provably inferior strategy.
	LeastLoaded
)

// String names the policy.
func (p ClosPolicy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case Packing:
		return "packing"
	case LeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("ClosPolicy(%d)", uint8(p))
	}
}

// ClosOnline is an online connection manager for Clos(n, m, r): the
// telephone-switching model under which the §II conditions were proven.
// It maintains the set of active circuits and serves Connect/Disconnect
// requests with a configurable middle-switch selection policy.
type ClosOnline struct {
	C      *topology.Clos
	Policy ClosPolicy

	inUse   [][]bool    // [input switch][middle] occupied
	outUse  [][]bool    // [output switch][middle] occupied
	midLoad []int       // connections per middle switch
	active  map[int]int // input terminal -> middle switch
	dstOf   map[int]int // input terminal -> output terminal
	dstBusy map[int]int // output terminal -> input terminal
}

// NewClosOnline builds an idle connection manager.
func NewClosOnline(c *topology.Clos, policy ClosPolicy) *ClosOnline {
	o := &ClosOnline{
		C:       c,
		Policy:  policy,
		inUse:   make([][]bool, c.R),
		outUse:  make([][]bool, c.R),
		midLoad: make([]int, c.M),
		active:  make(map[int]int),
		dstOf:   make(map[int]int),
		dstBusy: make(map[int]int),
	}
	for i := 0; i < c.R; i++ {
		o.inUse[i] = make([]bool, c.M)
		o.outUse[i] = make([]bool, c.M)
	}
	return o
}

// Connect establishes a circuit from input terminal s to output terminal
// d, returning the middle switch used. It fails when either terminal is
// busy or — the blocking event the nonblocking conditions quantify — no
// middle switch is free on both the input and output sides.
func (o *ClosOnline) Connect(s, d int) (int, error) {
	if s < 0 || s >= o.C.Ports() || d < 0 || d >= o.C.Ports() {
		return -1, fmt.Errorf("routing: terminal out of range: %d or %d", s, d)
	}
	if _, busy := o.active[s]; busy {
		return -1, fmt.Errorf("routing: input terminal %d already connected", s)
	}
	if prev, busy := o.dstBusy[d]; busy {
		return -1, fmt.Errorf("routing: output terminal %d already connected (to input %d)", d, prev)
	}
	in, out := s/o.C.N, d/o.C.N
	best := -1
	for j := 0; j < o.C.M; j++ {
		if o.inUse[in][j] || o.outUse[out][j] {
			continue
		}
		switch o.Policy {
		case FirstFit:
			best = j
		case Packing:
			if best == -1 || o.midLoad[j] > o.midLoad[best] {
				best = j
			}
		case LeastLoaded:
			if best == -1 || o.midLoad[j] < o.midLoad[best] {
				best = j
			}
		}
		if o.Policy == FirstFit && best != -1 {
			break
		}
	}
	if best == -1 {
		return -1, fmt.Errorf("routing: BLOCKED: no middle switch free for %d->%d (input switch %d, output switch %d)", s, d, in, out)
	}
	o.inUse[in][best] = true
	o.outUse[out][best] = true
	o.midLoad[best]++
	o.active[s] = best
	o.dstOf[s] = d
	o.dstBusy[d] = s
	return best, nil
}

// Disconnect tears down the circuit originating at input terminal s.
func (o *ClosOnline) Disconnect(s int) error {
	mid, ok := o.active[s]
	if !ok {
		return fmt.Errorf("routing: input terminal %d has no circuit", s)
	}
	d := o.dstOf[s]
	in, out := s/o.C.N, d/o.C.N
	o.inUse[in][mid] = false
	o.outUse[out][mid] = false
	o.midLoad[mid]--
	delete(o.active, s)
	delete(o.dstOf, s)
	delete(o.dstBusy, d)
	return nil
}

// ClosEvent is one step of an online request sequence.
type ClosEvent struct {
	// Connect distinguishes setups from teardowns.
	Connect bool
	// S is the input terminal; D the output terminal (setups only).
	S, D int
}

// Replay applies a sequence of events to a fresh manager and returns the
// index of the first blocked setup, or −1 when the whole sequence fits.
// Terminal-busy errors fail loudly: they indicate a malformed sequence,
// not blocking.
func Replay(c *topology.Clos, policy ClosPolicy, events []ClosEvent) (int, error) {
	o := NewClosOnline(c, policy)
	for i, e := range events {
		if !e.Connect {
			if err := o.Disconnect(e.S); err != nil {
				return -1, fmt.Errorf("routing: event %d: %w", i, err)
			}
			continue
		}
		if _, err := o.Connect(e.S, e.D); err != nil {
			if _, busyIn := o.active[e.S]; busyIn {
				return -1, fmt.Errorf("routing: event %d: %w", i, err)
			}
			if _, busyOut := o.dstBusy[e.D]; busyOut {
				return -1, fmt.Errorf("routing: event %d: %w", i, err)
			}
			return i, nil // genuine blocking
		}
	}
	return -1, nil
}

// ClosAdversary returns the classic sequence demonstrating that
// m = 2n−2 blocks under first-fit for Clos(2, 2, r), r ≥ 3:
//
//	a1→x1, b1→y1, b2→y2, teardown b1→y1, a2→y1  ← blocked
//
// Input switch A then occupies middle 0, output switch Y middle 1, and the
// new circuit a2→y1 finds no middle free on both sides even though both
// terminals are idle. Generalizing to arbitrary n is possible but the
// n = 2 instance suffices to separate m = 2n−2 from m = 2n−1 = 3.
func ClosAdversary() []ClosEvent {
	// Terminals for Clos(2, m, 3): input switch A = {0,1}, B = {2,3};
	// output switch X = {0,1}, Y = {2,3}.
	return []ClosEvent{
		{Connect: true, S: 0, D: 0}, // a1→x1 via mid 0
		{Connect: true, S: 2, D: 2}, // b1→y1 via mid 0
		{Connect: true, S: 3, D: 3}, // b2→y2 via mid 1
		{Connect: false, S: 2},      // teardown b1→y1
		{Connect: true, S: 1, D: 2}, // a2→y1: mid0 busy at A, mid1 busy at Y
	}
}
