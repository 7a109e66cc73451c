package sim

import "repro/internal/topology"

// The shared dense event core behind all three simulation engines (Run,
// RunFtreeAdaptive, OpenLoop). Link IDs are small consecutive integers, so
// every piece of per-link state — queues, free times, round-robin cursors,
// busy accounting — lives in slices indexed by LinkID. Packets live in one
// pooled slice and are referenced by index, and the event heap stores
// events by value, so a simulation performs O(1) heap allocations total
// regardless of packet count: the engines that previously allocated one
// object per packet and two per hop now only grow a handful of slices.
//
// The core is NOT safe for concurrent use; the multi-run drivers in
// drivers.go give each goroutine its own engine run.

// arbKeyPolicy selects what the OldestFirst arbitration key tracks. The
// three engines historically used different notions of "oldest"; the
// policies preserve each engine's semantics on the shared arbiter.
type arbKeyPolicy uint8

const (
	// keyReadyAt keys on the cycle the packet became ready at its current
	// node (closed-loop Run): FIFO age per hop.
	keyReadyAt arbKeyPolicy = iota
	// keyInjection keys on the packet's immutable injection cycle (open
	// loop): globally oldest first.
	keyInjection
	// keyFlowOrder keys on nothing (constant zero), so OldestFirst
	// degenerates to (flow, idx) order — the adaptive engine's historical
	// arbitration.
	keyFlowOrder
)

// corePacket is one pooled in-flight packet. The closed-loop engine uses
// path as the chosen path index and hop as the next link on it; the
// adaptive engine reuses path for the chosen top switch and hop for the
// pipeline stage; the open-loop engine additionally tracks the injection
// cycle and whether the packet is inside the measurement window.
type corePacket struct {
	flow     int32
	idx      int32
	path     int32
	hop      int32
	arbKey   int64 // OldestFirst key, maintained per arbKeyPolicy
	injected int64 // injection cycle (open loop)
	measured bool  // inside the measurement window (open loop)
}

// coreEvent is a simulator event: a packet (by pool index) becoming ready
// to compete for its next link, or — when pkt is negative — a link
// becoming free. Link-free events order after packet-ready events at the
// same cycle so a freed link sees every packet that arrived this cycle.
type coreEvent struct {
	time int64
	seq  int64 // tie-break for determinism
	pkt  int32 // pool index, or linkFreeEvent
	link topology.LinkID
}

// linkFreeEvent marks a coreEvent as a link-free event.
const linkFreeEvent = int32(-1)

func coreEventLess(a, b *coreEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if (a.pkt < 0) != (b.pkt < 0) {
		return b.pkt < 0 // packet arrivals first
	}
	return a.seq < b.seq
}

// eventCore bundles the event heap, the pooled packets and the dense
// per-link state shared by every engine.
type eventCore struct {
	L         int64        // packet length in flits = cycles per link
	arb       Arbiter      // per-link scheduling policy
	keyPolicy arbKeyPolicy // OldestFirst key semantics
	nFlows    int32        // round-robin wrap modulus

	pkts       []corePacket
	heap       []coreEvent
	seq        int64
	queues     [][]int32 // queued packet pool indices, per link
	linkFreeAt []int64
	rrLast     []int32 // last served flow per link; -1 = none yet
	linkBusy   []int64 // optional busy accounting (aliases Result.LinkBusy)

	// Observability: nil met = off. Every hook hides behind one nil
	// check, so a collector-less run pays nothing; per-packet wait
	// tracking lives in the collector (keyed by pool index), keeping the
	// core itself free of metric state.
	met Collector
}

// newEventCore returns a core with dense state sized for nLinks links and
// a round-robin modulus of nFlows flows.
func newEventCore(nLinks, nFlows int, L int64, arb Arbiter, pol arbKeyPolicy) *eventCore {
	c := &eventCore{
		L:          L,
		arb:        arb,
		keyPolicy:  pol,
		nFlows:     int32(nFlows),
		queues:     make([][]int32, nLinks),
		linkFreeAt: make([]int64, nLinks),
		rrLast:     make([]int32, nLinks),
	}
	for i := range c.rrLast {
		c.rrLast[i] = -1
	}
	return c
}

// newPacket appends p to the pool and returns its index.
func (c *eventCore) newPacket(p corePacket) int32 {
	c.pkts = append(c.pkts, p)
	return int32(len(c.pkts) - 1)
}

// pushPacket schedules packet pi to compete for its next link at cycle t.
func (c *eventCore) pushPacket(t int64, pi int32) {
	c.push(coreEvent{time: t, pkt: pi})
}

// pushLinkFree schedules link l to re-arbitrate at cycle t.
func (c *eventCore) pushLinkFree(t int64, l topology.LinkID) {
	c.push(coreEvent{time: t, pkt: linkFreeEvent, link: l})
}

func (c *eventCore) push(e coreEvent) {
	e.seq = c.seq
	c.seq++
	h := append(c.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !coreEventLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	c.heap = h
}

func (c *eventCore) empty() bool { return len(c.heap) == 0 }

func (c *eventCore) pop() coreEvent {
	h := c.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && coreEventLess(&h[l], &h[m]) {
			m = l
		}
		if r < len(h) && coreEventLess(&h[r], &h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.heap = h
	return top
}

// arbitrate picks the queue position the link serves next. OldestFirst
// orders by (arbKey, flow, idx); RoundRobin orders flows cyclically after
// the last served one, wrapping modulo the flow count (a fresh link,
// rrLast = -1, serves flows in ascending order starting at flow 0), with
// packet idx breaking same-flow ties.
func (c *eventCore) arbitrate(l topology.LinkID, q []int32) int {
	best := 0
	switch c.arb {
	case OldestFirst:
		for i := 1; i < len(q); i++ {
			a, b := &c.pkts[q[i]], &c.pkts[q[best]]
			if a.arbKey != b.arbKey {
				if a.arbKey < b.arbKey {
					best = i
				}
				continue
			}
			if a.flow != b.flow {
				if a.flow < b.flow {
					best = i
				}
				continue
			}
			if a.idx < b.idx {
				best = i
			}
		}
	case RoundRobin:
		last := c.rrLast[l]
		bestKey := c.nFlows // keys are in [0, nFlows)
		for i, pi := range q {
			p := &c.pkts[pi]
			key := p.flow - last - 1
			if key < 0 {
				key += c.nFlows
			}
			if key < bestKey || (key == bestKey && p.idx < c.pkts[q[best]].idx) {
				bestKey = key
				best = i
			}
		}
	}
	return best
}

// tryStart arbitrates link l at cycle now: if the link is free and has
// queued packets it dequeues the winner, occupies the link for L cycles,
// advances the packet's hop and schedules both the packet's arrival at the
// next node and the link's re-arbitration. Returns the started packet's
// pool index, or -1 if the link stays idle.
func (c *eventCore) tryStart(l topology.LinkID, now int64) int32 {
	if c.linkFreeAt[l] > now {
		return -1
	}
	q := c.queues[l]
	if len(q) == 0 {
		return -1
	}
	best := c.arbitrate(l, q)
	pi := q[best]
	c.queues[l] = append(q[:best], q[best+1:]...)
	p := &c.pkts[pi]
	c.rrLast[l] = p.flow
	c.linkFreeAt[l] = now + c.L
	if c.linkBusy != nil {
		c.linkBusy[l] += c.L
	}
	if c.met != nil {
		c.met.PacketStarted(l, pi, now)
	}
	p.hop++
	if c.keyPolicy == keyReadyAt {
		p.arbKey = now + c.L
	}
	c.pushPacket(now+c.L, pi)
	c.pushLinkFree(now+c.L, l)
	return pi
}

// enqueue adds packet pi to link l's queue and starts it immediately if
// the link is idle. stage classifies the hop for the metrics layer and is
// ignored when no collector is attached.
func (c *eventCore) enqueue(l topology.LinkID, pi int32, now int64, stage int) {
	if c.met != nil {
		c.met.PacketQueued(l, pi, stage, now)
	}
	c.queues[l] = append(c.queues[l], pi)
	c.tryStart(l, now)
}
