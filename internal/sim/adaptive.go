package sim

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// In-network per-packet adaptive routing on the two-level folded-Clos —
// the switch-level adaptivity of the related work ([1], [9]): each packet
// picks its top-level switch when it reaches its source's bottom switch,
// based on congestion visible at that moment. Two information models:
//
//   - AdaptLocal: the bottom switch sees only its own uplink occupancy
//     (realizable in hardware). Uplink collisions vanish; downlink
//     collisions — two switches converging on one destination switch via
//     one top switch — remain, so the scheme is *not* nonblocking.
//   - AdaptOracle: the choice also sees the remote downlink occupancy
//     (an idealized global-snapshot router). Better, but still greedy and
//     still beatable — unlike NONBLOCKINGADAPTIVE, which coordinates a
//     whole switch's pattern and is provably clean.
//
// This is the simulation-level counterpart of the paper's §V argument:
// adaptivity helps in proportion to the information it uses.

// AdaptMode selects the congestion information available to the choice.
type AdaptMode uint8

const (
	// AdaptLocal uses the source switch's uplink state only.
	AdaptLocal AdaptMode = iota
	// AdaptOracle additionally uses the destination-side downlink state.
	AdaptOracle
)

// String names the mode.
func (m AdaptMode) String() string {
	switch m {
	case AdaptLocal:
		return "adapt-local"
	case AdaptOracle:
		return "adapt-oracle"
	default:
		return fmt.Sprintf("AdaptMode(%d)", uint8(m))
	}
}

// RunFtreeAdaptive simulates the permutation on f with per-packet adaptive
// trunk selection. Intra-switch and self pairs short-circuit as usual.
// Packets run on the shared event core; corePacket.hop is the pipeline
// stage (0 = before host uplink, 1 = at source bottom switch, 2 = at top
// switch, 3 = at destination bottom switch, 4 = delivered) and
// corePacket.path the chosen top switch, set at stage 1.
func RunFtreeAdaptive(f *topology.FoldedClos, p *permutation.Permutation, cfg Config, mode AdaptMode) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if p.N() != f.Ports() {
		return nil, fmt.Errorf("sim: pattern over %d endpoints, network has %d", p.N(), f.Ports())
	}
	pairs := p.Pairs()
	L := int64(cfg.PacketFlits)
	nLinks := f.Net.NumLinks()
	res := &Result{
		FlowFinish: make([]int64, len(pairs)),
		LinkBusy:   make([]int64, nLinks),
	}

	// keyFlowOrder: the adaptive engine's OldestFirst historically
	// arbitrates by (flow, idx) alone.
	c := newEventCore(nLinks, len(pairs), L, cfg.Arbiter, keyFlowOrder)
	c.linkBusy = res.LinkBusy
	if cfg.Collector != nil {
		cfg.Collector.BeginRun(nLinks, L)
		c.met = cfg.Collector
	}

	deliver := func(flow int32, now int64) {
		res.Delivered++
		res.SumLatency += now
		if now > res.Makespan {
			res.Makespan = now
		}
		if now > res.FlowFinish[flow] {
			res.FlowFinish[flow] = now
		}
		if c.met != nil {
			c.met.PacketDelivered(now)
		}
	}

	// linkOf maps a packet's current stage to its next link.
	linkOf := func(pkt *corePacket) topology.LinkID {
		pr := pairs[pkt.flow]
		sv, sk := pr.Src/f.N, pr.Src%f.N
		dv, dk := pr.Dst/f.N, pr.Dst%f.N
		switch pkt.hop {
		case 0:
			return f.HostUpLink(sv, sk)
		case 1:
			return f.UpLink(sv, int(pkt.path))
		case 2:
			return f.DownLink(int(pkt.path), dv)
		case 3:
			return f.HostDownLink(dv, dk)
		}
		panic("sim: bad stage")
	}

	// Inject.
	for fi, pr := range pairs {
		for k := 0; k < cfg.PacketsPerPair; k++ {
			res.TotalPackets++
			if pr.Src == pr.Dst {
				deliver(int32(fi), 0)
				continue
			}
			c.pushPacket(0, c.newPacket(corePacket{flow: int32(fi), idx: int32(k)}))
		}
	}

	var wall int64
	for !c.empty() {
		e := c.pop()
		if e.time > cfg.MaxCycles {
			res.Aborted = true
			break
		}
		wall = e.time
		if e.pkt == linkFreeEvent {
			c.tryStart(e.link, e.time)
			continue
		}
		pkt := &c.pkts[e.pkt]
		pr := pairs[pkt.flow]
		sv := pr.Src / f.N
		dv := pr.Dst / f.N
		if sv == dv && pkt.hop == 1 {
			// Intra-switch pair: bottom switch forwards straight down.
			pkt.hop = 3
		}
		if pkt.hop == 4 {
			deliver(pkt.flow, e.time)
			continue
		}
		if pkt.hop == 1 && sv != dv {
			// The adaptive decision: pick the top switch whose relevant
			// links free earliest (ties toward lower index rotated by
			// packet idx to avoid herding).
			bestT, bestCost := 0, int64(1<<62)
			for off := 0; off < f.M; off++ {
				t := (off + int(pkt.idx)) % f.M
				cost := c.linkFreeAt[f.UpLink(sv, t)] + int64(len(c.queues[f.UpLink(sv, t)]))*L
				if mode == AdaptOracle {
					dc := c.linkFreeAt[f.DownLink(t, dv)] + int64(len(c.queues[f.DownLink(t, dv)]))*L
					if dc > cost {
						cost = dc
					}
				}
				if cost < bestCost {
					bestCost, bestT = cost, t
				}
			}
			pkt.path = int32(bestT)
			if c.met != nil {
				// The adaptive-retry counter: a deflection means the
				// congestion costs steered the packet off its preferred
				// (idx-rotated first candidate) top switch.
				c.met.AdaptiveChoice(bestT != int(pkt.idx)%f.M)
			}
		}
		// The adaptive pipeline stage (0..3) is exactly the metrics stage.
		c.enqueue(linkOf(pkt), e.pkt, e.time, int(pkt.hop))
	}
	if c.met != nil {
		c.met.EndRun(wall)
		res.Metrics = metricsOf(cfg.Collector)
	}
	return res, nil
}
