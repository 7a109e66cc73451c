package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The round-robin regression tests drive the event core directly on a
// single-link, single-hop configuration: packets are queued while the link
// is held, then the service order observed from the drained packet events
// pins the arbitration semantics fixed in this PR.

type servedPkt struct{ flow, idx int32 }

// drain runs the core's event loop to completion, treating every packet
// event past hop 0 as a delivery, and returns the link-service order.
func drainCore(c *eventCore) []servedPkt {
	var order []servedPkt
	for !c.empty() {
		e := c.pop()
		if e.pkt == linkFreeEvent {
			c.tryStart(e.link, e.time)
			continue
		}
		p := &c.pkts[e.pkt]
		order = append(order, servedPkt{p.flow, p.idx})
	}
	return order
}

func TestRoundRobinWrapsModuloFlowCount(t *testing.T) {
	// Flow 2 holds the link; flows {1, 0, 0, 2} queue behind it. After
	// serving flow 2, round robin must wrap past the flow-count boundary:
	// flow 0 is next (key (0−2−1) mod 3 = 0), then 1, then 2 — not the
	// numeric order 1, 2, 0 a non-wrapping key would produce. Same-flow
	// ties break by packet index.
	c := newEventCore(1, 3, 1, RoundRobin, keyInjection)
	c.enqueue(0, c.newPacket(corePacket{flow: 2, idx: 9}), 0, 0) // starts: link busy until t=1
	for _, p := range []corePacket{{flow: 1, idx: 0}, {flow: 0, idx: 1}, {flow: 0, idx: 0}, {flow: 2, idx: 0}} {
		c.enqueue(0, c.newPacket(p), 0, 0)
	}
	want := []servedPkt{{2, 9}, {0, 0}, {1, 0}, {2, 0}, {0, 1}}
	if got := drainCore(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v", got, want)
	}
}

func TestRoundRobinFreshLinkServesFlowZeroFirst(t *testing.T) {
	// A link that has never arbitrated must treat no flow as just-served.
	// Hold the link artificially (no rrLast update) with flows 2, 1, 0
	// queued: the first arbitration must pick flow 0, the lowest flow —
	// under the old 2^20 keying, flow 0 keyed as just-served and lost to
	// flow 1.
	c := newEventCore(1, 3, 1, RoundRobin, keyInjection)
	c.linkFreeAt[0] = 5
	for _, p := range []corePacket{{flow: 2}, {flow: 1}, {flow: 0}} {
		c.enqueue(0, c.newPacket(p), 0, 0) // all queue: the link is held
	}
	c.tryStart(0, 5)
	want := []servedPkt{{0, 0}, {1, 0}, {2, 0}}
	if got := drainCore(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v", got, want)
	}
}

func TestOldestFirstServesByArbKeyThenFlow(t *testing.T) {
	// OldestFirst orders by arbitration key (injection cycle here), then
	// flow, then packet index.
	c := newEventCore(1, 4, 1, OldestFirst, keyInjection)
	c.enqueue(0, c.newPacket(corePacket{flow: 3, idx: 0, arbKey: 0}), 0, 0) // holds the link
	for _, p := range []corePacket{
		{flow: 2, idx: 0, arbKey: 5},
		{flow: 1, idx: 1, arbKey: 2},
		{flow: 1, idx: 0, arbKey: 2},
		{flow: 0, idx: 0, arbKey: 9},
	} {
		c.enqueue(0, c.newPacket(p), 0, 0)
	}
	want := []servedPkt{{3, 0}, {1, 0}, {1, 1}, {2, 0}, {0, 0}}
	if got := drainCore(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v", got, want)
	}
}

// refHeap is the binary event heap the core ran on before the time wheel,
// kept as the reference queue the wheel must reproduce: events order by
// (time, packet arrival before link free, push sequence).
type refHeap struct {
	h   []refEvent
	seq int64
}

type refEvent struct {
	coreEvent
	seq int64
}

func refEventLess(a, b *refEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if (a.pkt < 0) != (b.pkt < 0) {
		return b.pkt < 0 // packet arrivals first
	}
	return a.seq < b.seq
}

func (r *refHeap) push(e coreEvent) {
	h := append(r.h, refEvent{e, r.seq})
	r.seq++
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !refEventLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	r.h = h
}

func (r *refHeap) empty() bool { return len(r.h) == 0 }

func (r *refHeap) pop() coreEvent {
	h := r.h
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, rt, m := 2*i+1, 2*i+2, i
		if l < len(h) && refEventLess(&h[l], &h[m]) {
			m = l
		}
		if rt < len(h) && refEventLess(&h[rt], &h[m]) {
			m = rt
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	r.h = h
	return top.coreEvent
}

// heapQueue drives an eventCore's arbitration state from a refHeap: after
// every action, absorb moves whatever the core scheduled (its pending
// injections and its next bucket) into the heap in scheduling order, so
// the core's own wheel is never popped.
type heapQueue struct {
	c *eventCore
	refHeap
}

func (q *heapQueue) absorb() {
	c := q.c
	for _, in := range c.inj {
		q.push(coreEvent{time: in.time, pkt: in.pkt})
	}
	for i, pi := range c.nextPkts {
		q.push(coreEvent{time: c.nextAt, pkt: pi})
		q.push(coreEvent{time: c.nextAt, pkt: linkFreeEvent, link: c.nextFree[i]})
	}
	c.inj, c.nextPkts, c.nextFree = c.inj[:0], c.nextPkts[:0], c.nextFree[:0]
}

// startLog is a Collector recording every link service start.
type startLog struct{ starts [][3]int64 }

func (s *startLog) BeginRun(int, int64)                             {}
func (s *startLog) PacketQueued(topology.LinkID, int32, int, int64) {}
func (s *startLog) PacketDelivered(int64)                           {}
func (s *startLog) AdaptiveChoice(bool)                             {}
func (s *startLog) EndRun(int64)                                    {}
func (s *startLog) PacketStarted(l topology.LinkID, pi int32, now int64) {
	s.starts = append(s.starts, [3]int64{int64(l), int64(pi), now})
}

// coreScenario is a randomized engine-shaped workload: packets with
// link paths, injected on L-cycle slots, pushed in flow order.
type coreScenario struct {
	L      int64
	nLinks int
	nFlows int
	arb    Arbiter
	pol    arbKeyPolicy
	pkts   []corePacket // flow, idx, path (index into paths), arbKey
	at     []int64      // injection cycle per packet
	paths  [][]topology.LinkID
}

func randomCoreScenario(rng *rand.Rand) coreScenario {
	sc := coreScenario{
		L:      []int64{1, 2, 4, 7}[rng.Intn(4)],
		nLinks: 1 + rng.Intn(12),
		nFlows: 1 + rng.Intn(6),
		arb:    Arbiter(rng.Intn(2)),
		pol:    arbKeyPolicy(rng.Intn(3)),
	}
	for range 1 + rng.Intn(4) {
		path := make([]topology.LinkID, 1+rng.Intn(4))
		for i := range path {
			path[i] = topology.LinkID(rng.Intn(sc.nLinks))
		}
		sc.paths = append(sc.paths, path)
	}
	burst := rng.Intn(3) == 0 // everything on one cycle
	for f := 0; f < sc.nFlows; f++ {
		var slot int64
		for k := range rng.Intn(10) {
			if !burst {
				switch rng.Intn(4) {
				case 0:
					slot += 5 + int64(rng.Intn(20)) // idle gap
				case 1:
					// same slot as the previous packet
				default:
					slot++
				}
			}
			t := slot * sc.L
			key := t
			if sc.pol == keyFlowOrder {
				key = 0
			}
			sc.pkts = append(sc.pkts, corePacket{flow: int32(f), idx: int32(k), path: int32(rng.Intn(len(sc.paths))), arbKey: key})
			sc.at = append(sc.at, t)
		}
	}
	return sc
}

// run replays the scenario on c, popping events from q, and returns the
// pop sequence. after runs once after the injections and after every
// handled event.
func (sc *coreScenario) run(c *eventCore, q interface {
	empty() bool
	pop() coreEvent
}, after func()) []coreEvent {
	for i, p := range sc.pkts {
		c.pushPacket(sc.at[i], c.newPacket(p))
	}
	after()
	var pops []coreEvent
	for !q.empty() {
		e := q.pop()
		pops = append(pops, e)
		if e.pkt == linkFreeEvent {
			c.tryStart(e.link, e.time)
		} else if p := &c.pkts[e.pkt]; int(p.hop) < len(sc.paths[p.path]) {
			c.enqueue(sc.paths[p.path][p.hop], e.pkt, e.time, 0)
		}
		after()
	}
	return pops
}

func TestWheelMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		sc := randomCoreScenario(rng)
		name := fmt.Sprintf("trial %d (L=%d links=%d flows=%d pkts=%d arb=%v pol=%d)",
			trial, sc.L, sc.nLinks, sc.nFlows, len(sc.pkts), sc.arb, sc.pol)

		wheel := newEventCore(sc.nLinks, sc.nFlows, sc.L, sc.arb, sc.pol)
		wheelLog := &startLog{}
		wheel.met = wheelLog
		got := sc.run(wheel, wheel, func() {})

		ref := newEventCore(sc.nLinks, sc.nFlows, sc.L, sc.arb, sc.pol)
		refLog := &startLog{}
		ref.met = refLog
		q := &heapQueue{c: ref}
		want := sc.run(ref, q, q.absorb)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pop sequence diverges from the heap\n got %v\nwant %v", name, got, want)
		}
		if !reflect.DeepEqual(wheelLog.starts, refLog.starts) {
			t.Fatalf("%s: service order diverges from the heap\n got %v\nwant %v", name, wheelLog.starts, refLog.starts)
		}
		hops := 0
		for _, p := range sc.pkts {
			hops += len(sc.paths[p.path])
		}
		if len(wheelLog.starts) != hops {
			t.Fatalf("%s: %d link services, want %d", name, len(wheelLog.starts), hops)
		}
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "sim: ") || !strings.Contains(msg, want) {
			t.Errorf("panic %q, want a sim: panic containing %q", msg, want)
		}
	}()
	f()
}

func TestWheelRejectsInjectionAfterFirstPop(t *testing.T) {
	c := newEventCore(1, 1, 2, OldestFirst, keyInjection)
	c.pushPacket(0, c.newPacket(corePacket{}))
	c.pop()
	mustPanic(t, "after the event loop started", func() { c.pushPacket(4, c.newPacket(corePacket{idx: 1})) })
}

func TestWheelRejectsInjectionAfterScheduling(t *testing.T) {
	c := newEventCore(1, 1, 2, OldestFirst, keyInjection)
	c.enqueue(0, c.newPacket(corePacket{}), 0, 0) // schedules cycle 2
	mustPanic(t, "after the event loop started", func() { c.pushPacket(4, c.newPacket(corePacket{idx: 1})) })
}

func TestWheelRejectsInjectionOffSlot(t *testing.T) {
	c := newEventCore(1, 1, 4, OldestFirst, keyInjection)
	mustPanic(t, "not a multiple of the packet length 4", func() { c.pushPacket(6, c.newPacket(corePacket{})) })
}

func TestWheelRejectsSecondPendingCycle(t *testing.T) {
	c := newEventCore(2, 1, 1, OldestFirst, keyInjection)
	c.enqueue(0, c.newPacket(corePacket{}), 0, 0) // schedules cycle 1
	mustPanic(t, "while cycle 1 is pending", func() { c.enqueue(1, c.newPacket(corePacket{idx: 1}), 5, 0) })
}

// The core sizes every buffer once, from the link count and the known
// packet count, so a run's allocation count must not depend on how many
// packets it simulates — with or without a (warmed-up) metrics collector.
func TestRunAllocsIndependentOfPacketCount(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	p := permutation.SwitchShift(2, 5, 1)
	pairs := permPairsFor(p)
	for _, metered := range []bool{false, true} {
		var col Collector
		if metered {
			col = NewMetricsCollector()
		}
		closed := func(pkts int) float64 {
			cfg := Config{PacketFlits: 2, PacketsPerPair: pkts, Arbiter: RoundRobin, Collector: col}
			return testing.AllocsPerRun(5, func() {
				if _, res, err := RunPermutation(f.Net, r, p, cfg); err != nil || res.Delivered != res.TotalPackets {
					t.Fatalf("closed loop: err=%v", err)
				}
			})
		}
		open := func(pkts int) float64 {
			cfg := OpenLoopConfig{PacketFlits: 4, Rate: 0.6, WarmupPackets: pkts / 4, MeasuredPackets: pkts, Seed: 3, Collector: col}
			return testing.AllocsPerRun(5, func() {
				if res, err := OpenLoop(f.Net, pairs, PairPathsFunc(r), cfg); err != nil || res.Delivered != pkts*len(pairs) {
					t.Fatalf("open loop: err=%v", err)
				}
			})
		}
		for name, measure := range map[string]func(int) float64{"RunPermutation": closed, "OpenLoop": open} {
			if small, large := measure(8), measure(64); small != large {
				t.Errorf("%s (metered=%v): %v allocs at 8 packets per pair, %v at 64", name, metered, small, large)
			}
		}
	}
}
