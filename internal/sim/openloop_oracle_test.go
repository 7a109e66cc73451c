package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// openLoopOracle is a verbatim copy of the pre-unification OpenLoop engine
// — its own pointer-event binary heap and map-keyed per-link state — kept
// as the behavioural oracle for the dense-event-core port, exactly as PR 1
// kept the map-based Check as the oracle for the flat-array Checker. Only
// the intentional PR-2 semantic fixes are applied on top of the verbatim
// copy, so a parity failure isolates unintended drift from the engine
// unification itself:
//
//  1. round-robin arbitration wraps modulo the flow count instead of
//     2^20, starts from "nothing served yet" (flow 0 is no longer treated
//     as just-served on a link's first arbitration), and breaks same-flow
//     ties by packet index;
//  2. saturation accounting: outstanding counts only packets that enter
//     the network, Saturated requires outstanding > 0 at abort, and
//     Undelivered reports the in-flight count;
//  3. a degenerate measurement window reports AcceptedLoad = OfferedLoad
//     instead of silently 0.
func openLoopOracle(net *topology.Network, pairs [][2]int, pathsFor func(s, d int) ([]topology.Path, error), cfg OpenLoopConfig) (*OpenLoopResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	L := int64(cfg.PacketFlits)

	type openPacket struct {
		flow     int
		idx      int
		injected int64
		measured bool
		hop      int
		path     topology.Path
	}

	pathSets := make([][]topology.Path, len(pairs))
	for i, pr := range pairs {
		ps, err := pathsFor(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		if len(ps) == 0 {
			return nil, fmt.Errorf("sim: pair %v has no paths", pr)
		}
		for _, p := range ps {
			if !p.Valid(net) {
				return nil, fmt.Errorf("sim: pair %v has an invalid path", pr)
			}
		}
		pathSets[i] = ps
	}

	totalPerFlow := cfg.WarmupPackets + cfg.MeasuredPackets
	injections := make([][]int64, len(pairs))
	for i := range pairs {
		times := make([]int64, 0, totalPerFlow)
		var t int64
		for len(times) < totalPerFlow {
			if rng.Float64() < cfg.Rate {
				times = append(times, t)
			}
			t += L
		}
		injections[i] = times
	}

	type ev struct {
		time       int64
		isLinkFree bool
		link       topology.LinkID
		pkt        *openPacket
		seq        int64
	}
	less := func(a, b *ev) bool {
		if a.time != b.time {
			return a.time < b.time
		}
		if a.isLinkFree != b.isLinkFree {
			return !a.isLinkFree
		}
		return a.seq < b.seq
	}
	var events []*ev
	var seq int64
	push := func(e *ev) {
		e.seq = seq
		seq++
		events = append(events, e)
		i := len(events) - 1
		for i > 0 {
			p := (i - 1) / 2
			if less(events[i], events[p]) {
				events[i], events[p] = events[p], events[i]
				i = p
			} else {
				break
			}
		}
	}
	pop := func() *ev {
		top := events[0]
		last := len(events) - 1
		events[0] = events[last]
		events = events[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(events) && less(events[l], events[m]) {
				m = l
			}
			if r < len(events) && less(events[r], events[m]) {
				m = r
			}
			if m == i {
				break
			}
			events[i], events[m] = events[m], events[i]
			i = m
		}
		return top
	}

	res := &OpenLoopResult{OfferedLoad: cfg.Rate}
	queues := map[topology.LinkID][]*openPacket{}
	linkFreeAt := map[topology.LinkID]int64{}
	rrLast := map[topology.LinkID]int{}
	var latencies []int64
	var firstMeasuredInjection, lastDelivery int64 = -1, 0

	outstanding := 0
	for fi := range pairs {
		for k, t := range injections[fi] {
			measured := k >= cfg.WarmupPackets
			if measured && (firstMeasuredInjection == -1 || t < firstMeasuredInjection) {
				firstMeasuredInjection = t
			}
			p := &openPacket{flow: fi, idx: k, injected: t, measured: measured}
			p.path = pathSets[fi][rng.Intn(len(pathSets[fi]))]
			if p.path.Len() == 0 {
				if measured {
					latencies = append(latencies, 0)
					res.Delivered++
				}
				continue
			}
			outstanding++ // fix 2: count only packets entering the network
			push(&ev{time: t, pkt: p})
		}
	}

	start := func(l topology.LinkID, now int64) {
		if linkFreeAt[l] > now {
			return
		}
		q := queues[l]
		if len(q) == 0 {
			return
		}
		best := 0
		switch cfg.Arbiter {
		case OldestFirst:
			for i := 1; i < len(q); i++ {
				a, b := q[i], q[best]
				if a.injected < b.injected ||
					(a.injected == b.injected && (a.flow < b.flow || (a.flow == b.flow && a.idx < b.idx))) {
					best = i
				}
			}
		case RoundRobin:
			last, served := rrLast[l]
			if !served {
				last = -1 // fix 1: nothing served yet
			}
			bestKey := len(pairs)
			for i, p := range q {
				key := p.flow - last - 1
				if key < 0 {
					key += len(pairs) // fix 1: wrap modulo the flow count
				}
				if key < bestKey || (key == bestKey && p.idx < q[best].idx) {
					bestKey = key
					best = i
				}
			}
		}
		p := q[best]
		queues[l] = append(q[:best], q[best+1:]...)
		rrLast[l] = p.flow
		linkFreeAt[l] = now + L
		p.hop++
		push(&ev{time: now + L, pkt: p})
		push(&ev{time: now + L, isLinkFree: true, link: l})
	}

	for len(events) > 0 {
		e := pop()
		if e.time > cfg.MaxCycles {
			res.Saturated = outstanding > 0 // fix 2
			res.Undelivered = outstanding   // fix 2
			break
		}
		if e.isLinkFree {
			start(e.link, e.time)
			continue
		}
		p := e.pkt
		if p.hop >= p.path.Len() {
			outstanding--
			if p.measured {
				res.Delivered++
				latencies = append(latencies, e.time-p.injected)
				if e.time > lastDelivery {
					lastDelivery = e.time
				}
			}
			continue
		}
		l := p.path.Links[p.hop]
		queues[l] = append(queues[l], p)
		start(l, e.time)
	}

	if res.Delivered > 0 {
		var sum int64
		for _, l := range latencies {
			sum += l
		}
		res.MeanLatency = float64(sum) / float64(res.Delivered)
		res.P99Latency = percentile(latencies, 0.99)
		window := lastDelivery - firstMeasuredInjection
		if window > 0 {
			res.AcceptedLoad = float64(res.Delivered) * float64(L) / float64(window) / float64(len(pairs))
		} else {
			res.AcceptedLoad = cfg.Rate // fix 3
		}
	}
	return res, nil
}

// TestOpenLoopMatchesOracle pins the dense-event-core OpenLoop to the
// pre-unification engine across arbiters, rates, path multiplicities and
// the saturating regime: same seed ⇒ byte-identical OpenLoopResult.
func TestOpenLoopMatchesOracle(t *testing.T) {
	type tc struct {
		name    string
		net     *topology.Network
		pairs   [][2]int
		paths   func(s, d int) ([]topology.Path, error)
		rates   []float64
		maxCyc  int64
		arbiter Arbiter
	}
	var cases []tc

	// Nonblocking single-path routing on a switch-shift permutation.
	f1 := topology.NewFoldedClos(2, 4, 5)
	r1, err := routing.NewPaperDeterministic(f1)
	if err != nil {
		t.Fatal(err)
	}
	p1 := permPairsFor(permutation.SwitchShift(2, 5, 1))
	// Contended static routing (saturates at high load).
	f2 := topology.NewFoldedClos(2, 2, 3)
	collide := &routing.FtreeSinglePath{F: f2, RouterName: "collide", TopChoice: func(s, d int) int { return 0 }}
	p2 := [][2]int{{0, 4}, {2, 5}}
	// Oblivious multipath: random per-packet path choice.
	f3 := topology.NewFoldedClos(2, 4, 4)
	spray := routing.NewFullSpray(f3)
	p3 := permPairsFor(permutation.SwitchShift(2, 4, 1))
	// Self-pairs only: degenerate measurement window.
	f4 := topology.NewFoldedClos(2, 4, 3)
	r4, err := routing.NewPaperDeterministic(f4)
	if err != nil {
		t.Fatal(err)
	}

	for _, arb := range []Arbiter{OldestFirst, RoundRobin} {
		cases = append(cases,
			tc{"nonblocking", f1.Net, p1, PairPathsFunc(r1), []float64{0.05, 0.4, 1.0}, 0, arb},
			tc{"contended", f2.Net, p2, PairPathsFunc(collide), []float64{0.3, 1.0}, 0, arb},
			tc{"contended-abort", f2.Net, p2, PairPathsFunc(collide), []float64{1.0}, 200, arb},
			tc{"multipath", f3.Net, p3, spray.PathsFor, []float64{0.5, 1.0}, 0, arb},
			tc{"self-pairs", f4.Net, [][2]int{{1, 1}, {2, 2}}, PairPathsFunc(r4), []float64{0.5}, 0, arb},
		)
	}

	for _, c := range cases {
		for _, rate := range c.rates {
			for _, seed := range []int64{1, 7, 42} {
				cfg := OpenLoopConfig{
					PacketFlits: 4, Rate: rate, WarmupPackets: 5, MeasuredPackets: 30,
					Seed: seed, Arbiter: c.arbiter, MaxCycles: c.maxCyc,
				}
				got, err := OpenLoop(c.net, c.pairs, c.paths, cfg)
				if err != nil {
					t.Fatalf("%s/%v rate=%.2f seed=%d: %v", c.name, c.arbiter, rate, seed, err)
				}
				want, err := openLoopOracle(c.net, c.pairs, c.paths, cfg)
				if err != nil {
					t.Fatalf("%s/%v oracle rate=%.2f seed=%d: %v", c.name, c.arbiter, rate, seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v rate=%.2f seed=%d:\n core  %+v\n oracle %+v",
						c.name, c.arbiter, rate, seed, *got, *want)
				}
			}
		}
	}
}
