package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/topology"
)

// The shared dense event core behind all three simulation engines (Run,
// RunFtreeAdaptive, OpenLoop). Link IDs are small consecutive integers, so
// every piece of per-link state — queues, free times, round-robin cursors,
// busy accounting — lives in slices indexed by LinkID. Packets live in one
// pooled slice and are referenced by index; a link's queue is a FIFO list
// threaded through the pool. Every buffer is sized once, from the link
// count and the engine's known packet count, so a run performs the same
// number of heap allocations regardless of how many packets it simulates.
//
// Events live on a two-bucket time wheel instead of a priority queue. The
// wheel is exact because every event lands on a multiple of the packet
// length L: injections sit on L-cycle slots (cycle 0 for the closed-loop
// engines), and tryStart, the only other scheduler, always schedules both
// the started packet's arrival at its next node and the link's
// re-arbitration at now+L. Ordered by (time, packet before link free,
// push order) — the order the simulators have always used — one cycle
// therefore pops
//
//  1. that cycle's injections, in push order (all injections are pushed
//     before the event loop starts, so they precede everything else);
//  2. the packet arrivals scheduled during the previous cycle, in
//     scheduling order;
//  3. the link frees scheduled during the previous cycle, in scheduling
//     order.
//
// So the core keeps the injections in one list sorted once by (time, pool
// index), plus a current and a next bucket of arrivals and link frees. A
// link starts at most one packet per cycle, so a bucket never holds more
// than one entry per link. Each event costs O(1); an idle gap jumps
// straight to the next injection.
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
	next     int32 // next packet in the same link queue; -1 = tail
	measured bool  // inside the measurement window (open loop)
	arbKey   int64 // OldestFirst key, maintained per arbKeyPolicy
	injected int64 // injection cycle (open loop)
}

// coreEvent is a simulator event: a packet (by pool index) becoming ready
// to compete for its next link, or — when pkt is negative — a link
// becoming free. Link-free events order after packet-ready events at the
// same cycle so a freed link sees every packet that arrived this cycle.
type coreEvent struct {
	time int64
	pkt  int32 // pool index, or linkFreeEvent
	link topology.LinkID
}

// linkFreeEvent marks a coreEvent as a link-free event.
const linkFreeEvent = int32(-1)

// injection is a packet scheduled before the event loop starts.
type injection struct {
	time int64
	pkt  int32
}

// eventCore bundles the event wheel, the pooled packets and the dense
// per-link state shared by every engine.
type eventCore struct {
	L         int64        // packet length in flits = cycles per link
	arb       Arbiter      // per-link scheduling policy
	keyPolicy arbKeyPolicy // OldestFirst key semantics
	nFlows    int32        // round-robin wrap modulus

	pkts []corePacket

	// Injections, sorted by (time, pool index) on the first pop; injNext
	// is the next one to pop.
	inj     []injection
	injNext int
	sorted  bool

	// The wheel: now is the cycle being popped, curPkts/curFree its
	// arrivals and link frees (consumed up to curPkt/curFreeI), and
	// nextPkts/nextFree the ones tryStart scheduled for cycle nextAt.
	// tryStart appends to both next buckets at once, so they are empty
	// together.
	now      int64
	curPkts  []int32
	curFree  []topology.LinkID
	curPkt   int
	curFreeI int
	nextPkts []int32
	nextFree []topology.LinkID
	nextAt   int64

	// Per-link FIFO queues threaded through corePacket.next: head and
	// tail pool indices (valid while qLen > 0) and the queue length.
	qHead, qTail, qLen []int32
	linkFreeAt         []int64
	rrLast             []int32 // last served flow per link; -1 = none yet
	linkBusy           []int64 // optional busy accounting (aliases Result.LinkBusy)

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
		curPkts:    make([]int32, 0, nLinks),
		curFree:    make([]topology.LinkID, 0, nLinks),
		nextPkts:   make([]int32, 0, nLinks),
		nextFree:   make([]topology.LinkID, 0, nLinks),
		qHead:      make([]int32, nLinks),
		qTail:      make([]int32, nLinks),
		qLen:       make([]int32, nLinks),
		linkFreeAt: make([]int64, nLinks),
		rrLast:     make([]int32, nLinks),
	}
	for i := range c.rrLast {
		c.rrLast[i] = -1
	}
	return c
}

// observe attaches col (nil = off) and opens its run over nLinks links.
func (c *eventCore) observe(col Collector, nLinks int) {
	if col != nil {
		col.BeginRun(nLinks, c.L)
		c.met = col
	}
}

// reserve sizes the packet pool and the injection list for n packets.
func (c *eventCore) reserve(n int) {
	c.pkts = make([]corePacket, 0, n)
	c.inj = make([]injection, 0, n)
}

// newPacket appends p to the pool and returns its index.
func (c *eventCore) newPacket(p corePacket) int32 {
	c.pkts = append(c.pkts, p)
	return int32(len(c.pkts) - 1)
}

// pushPacket schedules packet pi to be injected at cycle t. Every
// injection must be pushed before the event loop schedules anything, on
// a multiple of the packet length: the wheel's ordering argument rests on
// both, so a violation panics instead of silently reordering events.
func (c *eventCore) pushPacket(t int64, pi int32) {
	if c.sorted || len(c.nextFree) > 0 {
		panic("sim: pushPacket after the event loop started")
	}
	if t%c.L != 0 {
		panic(fmt.Sprintf("sim: injection at cycle %d is not a multiple of the packet length %d", t, c.L))
	}
	c.inj = append(c.inj, injection{time: t, pkt: pi})
}

// empty reports whether no event is left. The current bucket's link frees
// pop after its arrivals, so curFree alone tells whether it is drained.
func (c *eventCore) empty() bool {
	return c.injNext == len(c.inj) && c.curFreeI == len(c.curFree) && len(c.nextFree) == 0
}

// pop removes and returns the next event; the core must not be empty.
func (c *eventCore) pop() coreEvent {
	if !c.sorted {
		// Pool indices grow in push order, so (time, pool index) is the
		// push order within a cycle; the keys are unique, so an unstable
		// sort suffices.
		slices.SortFunc(c.inj, func(a, b injection) int {
			if a.time != b.time {
				return cmp.Compare(a.time, b.time)
			}
			return cmp.Compare(a.pkt, b.pkt)
		})
		c.sorted = true
	}
	for {
		if c.injNext < len(c.inj) && c.inj[c.injNext].time == c.now {
			c.injNext++
			return coreEvent{time: c.now, pkt: c.inj[c.injNext-1].pkt}
		}
		if c.curPkt < len(c.curPkts) {
			c.curPkt++
			return coreEvent{time: c.now, pkt: c.curPkts[c.curPkt-1]}
		}
		if c.curFreeI < len(c.curFree) {
			c.curFreeI++
			return coreEvent{time: c.now, pkt: linkFreeEvent, link: c.curFree[c.curFreeI-1]}
		}
		c.advance()
	}
}

// advance moves the wheel to the earliest pending cycle once the current
// one is drained: the next bucket's cycle, or across an idle gap to the
// next injection, whichever comes first.
func (c *eventCore) advance() {
	pending := len(c.nextFree) > 0
	if c.injNext < len(c.inj) {
		if t := c.inj[c.injNext].time; !pending || t < c.nextAt {
			c.now = t
			return
		}
	} else if !pending {
		panic("sim: pop on an empty event core")
	}
	c.curPkts, c.nextPkts = c.nextPkts, c.curPkts[:0]
	c.curFree, c.nextFree = c.nextFree, c.curFree[:0]
	c.curPkt, c.curFreeI = 0, 0
	c.now = c.nextAt
}

// arbitrate picks the packet link l serves next from its non-empty queue
// and returns it with its predecessor in the queue (-1 at the head).
// OldestFirst orders by (arbKey, flow, idx); RoundRobin orders flows
// cyclically after the last served one, wrapping modulo the flow count (a
// fresh link, rrLast = -1, serves flows in ascending order starting at
// flow 0), with packet idx breaking same-flow ties. Exact ties keep the
// earlier-queued packet.
func (c *eventCore) arbitrate(l topology.LinkID) (best, prev int32) {
	best, prev = c.qHead[l], -1
	b := &c.pkts[best]
	switch c.arb {
	case OldestFirst:
		for q, pi := best, b.next; pi >= 0; q, pi = pi, c.pkts[pi].next {
			a := &c.pkts[pi]
			if a.arbKey < b.arbKey || a.arbKey == b.arbKey &&
				(a.flow < b.flow || a.flow == b.flow && a.idx < b.idx) {
				best, prev, b = pi, q, a
			}
		}
	case RoundRobin:
		last := c.rrLast[l]
		key := func(p *corePacket) int32 {
			k := p.flow - last - 1
			if k < 0 {
				k += c.nFlows
			}
			return k
		}
		bestKey := key(b)
		for q, pi := best, b.next; pi >= 0; q, pi = pi, c.pkts[pi].next {
			a := &c.pkts[pi]
			if k := key(a); k < bestKey || k == bestKey && a.idx < b.idx {
				best, prev, b, bestKey = pi, q, a, k
			}
		}
	}
	return best, prev
}

// tryStart arbitrates link l at cycle now: if the link is free and has
// queued packets it dequeues the winner, occupies the link for L cycles,
// advances the packet's hop and schedules both the packet's arrival at the
// next node and the link's re-arbitration at now+L. Returns the started
// packet's pool index, or -1 if the link stays idle.
func (c *eventCore) tryStart(l topology.LinkID, now int64) int32 {
	if c.linkFreeAt[l] > now || c.qLen[l] == 0 {
		return -1
	}
	pi, prev := c.arbitrate(l)
	p := &c.pkts[pi]
	if prev < 0 {
		c.qHead[l] = p.next
	} else {
		c.pkts[prev].next = p.next
	}
	if c.qTail[l] == pi {
		c.qTail[l] = prev
	}
	c.qLen[l]--
	c.rrLast[l] = p.flow
	at := now + c.L
	c.linkFreeAt[l] = at
	if c.linkBusy != nil {
		c.linkBusy[l] += c.L
	}
	if c.met != nil {
		c.met.PacketStarted(l, pi, now)
	}
	p.hop++
	if c.keyPolicy == keyReadyAt {
		p.arbKey = at
	}
	if len(c.nextFree) == 0 {
		c.nextAt = at
	} else if at != c.nextAt {
		panic(fmt.Sprintf("sim: event scheduled for cycle %d while cycle %d is pending", at, c.nextAt))
	}
	c.nextPkts = append(c.nextPkts, pi)
	c.nextFree = append(c.nextFree, l)
	return pi
}

// enqueue appends packet pi to link l's queue and starts it immediately
// if the link is idle. stage classifies the hop for the metrics layer and
// is ignored when no collector is attached.
func (c *eventCore) enqueue(l topology.LinkID, pi int32, now int64, stage int) {
	if c.met != nil {
		c.met.PacketQueued(l, pi, stage, now)
	}
	c.pkts[pi].next = -1
	if c.qLen[l] == 0 {
		c.qHead[l] = pi
	} else {
		c.pkts[c.qTail[l]].next = pi
	}
	c.qTail[l] = pi
	c.qLen[l]++
	c.tryStart(l, now)
}

// drive is the event loop every engine runs once its injections are
// pushed. It pops events until none is left or one lies past maxCycles
// (aborted), restarts arbitration on every link-free event, and hands
// every packet arrival to arrive, which delivers the packet or enqueues
// it on its next link. The collector's run closes at the last popped
// cycle; m is its payload (nil without a default collector).
func (c *eventCore) drive(maxCycles int64, arrive func(pi int32, now int64)) (m *Metrics, aborted bool) {
	var wall int64
	for !c.empty() {
		e := c.pop()
		if e.time > maxCycles {
			aborted = true
			break
		}
		wall = e.time
		if e.pkt == linkFreeEvent {
			c.tryStart(e.link, e.time)
			continue
		}
		arrive(e.pkt, e.time)
	}
	if c.met != nil {
		c.met.EndRun(wall)
		m = metricsOf(c.met)
	}
	return m, aborted
}
