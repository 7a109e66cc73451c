// Package sim is a deterministic event-driven, cycle-accurate network
// simulator for the interconnects in this repository: the substrate that
// stands in for the paper's "computer communication environment". Switch
// control is fully distributed — each output link arbitrates independently
// among locally queued packets — so the simulator exhibits exactly the
// blocking behaviour the paper analyzes: when a routing assigns two flows
// of a permutation to one link, their packets serialize and delivered
// throughput drops below the crossbar reference; a nonblocking assignment
// finishes in crossbar time.
//
// The model: every directed link transmits one flit per cycle; a packet of
// L flits occupies a link for L consecutive cycles; forwarding is
// store-and-forward (a packet competes for its next hop once fully
// received). All of a flow's packets are injected at cycle 0 and serialize
// naturally over the host's uplink.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Arbiter selects which queued packet a freed link serves next.
type Arbiter uint8

const (
	// OldestFirst serves the packet that has waited longest (ties by
	// flow, then packet index) — FIFO-age arbitration.
	OldestFirst Arbiter = iota
	// RoundRobin cycles over flows with queued packets, the arbitration
	// used by typical switch hardware.
	RoundRobin
)

// String names the arbiter.
func (a Arbiter) String() string {
	switch a {
	case OldestFirst:
		return "oldest-first"
	case RoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Arbiter(%d)", uint8(a))
	}
}

// Spray selects how a multipath flow assigns packets to its paths.
type Spray uint8

const (
	// SprayRoundRobin sends packet i over path i mod |paths|.
	SprayRoundRobin Spray = iota
	// SprayRandom draws each packet's path from a seeded generator.
	SprayRandom
)

// Config parameterizes a run.
type Config struct {
	// PacketFlits is the packet length L in flits (cycles per link).
	PacketFlits int
	// PacketsPerPair is how many packets every SD pair sends.
	PacketsPerPair int
	// Arbiter is the per-link scheduling policy.
	Arbiter Arbiter
	// Spray is the per-packet path selection for multipath flows.
	Spray Spray
	// Seed drives SprayRandom.
	Seed int64
	// MaxCycles aborts runaway simulations; 0 means 10^9.
	MaxCycles int64
	// Collector, when non-nil, receives per-link/per-stage observability
	// events (see Collector); nil collects nothing and costs nothing.
	// The single-run engines call a custom implementation directly; the
	// trial/sweep drivers treat any non-nil value as "metrics on" and
	// substitute pooled MetricsCollectors so that workers never share
	// collector state.
	Collector Collector
}

func (c *Config) normalize() error {
	if c.PacketFlits <= 0 {
		return fmt.Errorf("sim: PacketFlits must be positive")
	}
	if c.PacketsPerPair <= 0 {
		return fmt.Errorf("sim: PacketsPerPair must be positive")
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 1_000_000_000
	}
	return nil
}

// Flow is one SD pair's traffic: a path set (usually a single path) over
// which its packets travel.
type Flow struct {
	Pair  permutation.Pair
	Paths []topology.Path
}

// FlowsFromAssignment converts a routing assignment into simulator flows.
func FlowsFromAssignment(a *routing.Assignment) []Flow {
	flows := make([]Flow, len(a.Pairs))
	for i := range a.Pairs {
		flows[i] = Flow{Pair: a.Pairs[i], Paths: a.PathSets[i]}
	}
	return flows
}

// Result summarizes one simulation run.
type Result struct {
	// Makespan is the cycle at which the last packet was delivered.
	Makespan int64
	// Delivered counts packets that reached their destination.
	Delivered int
	// TotalPackets counts packets injected.
	TotalPackets int
	// FlowFinish[i] is the delivery cycle of flow i's last packet.
	FlowFinish []int64
	// LinkBusy[l] is the cycles link l spent transmitting, indexed by
	// LinkID (dense; length is the network's NumLinks).
	LinkBusy []int64
	// SumLatency accumulates per-packet delivery times, for mean latency.
	SumLatency int64
	// Aborted is set when MaxCycles was hit before completion.
	Aborted bool
	// Metrics is the run's observability payload when a default
	// MetricsCollector was attached (nil otherwise). Single-run engines
	// alias the collector's live memory — Clone to keep it across runs;
	// the trial drivers attach detached snapshots.
	Metrics *Metrics `json:"metrics,omitempty"`
}

// MeanLatency is the average packet delivery cycle.
func (r *Result) MeanLatency() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.SumLatency) / float64(r.Delivered)
}

// MaxLinkUtilization is the busiest link's busy fraction of the makespan.
func (r *Result) MaxLinkUtilization() float64 {
	if r.Makespan == 0 {
		return 0
	}
	var m int64
	for _, b := range r.LinkBusy {
		if b > m {
			m = b
		}
	}
	return float64(m) / float64(r.Makespan)
}

// Slowdown is this run's makespan relative to a reference run (typically
// the crossbar baseline): 1.0 means crossbar-equivalent performance.
func (r *Result) Slowdown(reference *Result) float64 {
	if reference.Makespan == 0 {
		return 1
	}
	return float64(r.Makespan) / float64(reference.Makespan)
}

// Run simulates the flows over the network and returns the metrics.
func Run(net *topology.Network, flows []Flow, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	for i, f := range flows {
		if len(f.Paths) == 0 {
			return nil, fmt.Errorf("sim: flow %d has no paths", i)
		}
		for _, p := range f.Paths {
			if !p.Valid(net) {
				return nil, fmt.Errorf("sim: flow %d has an invalid path", i)
			}
		}
	}

	L := int64(cfg.PacketFlits)
	nLinks := net.NumLinks()
	res := &Result{
		FlowFinish: make([]int64, len(flows)),
		LinkBusy:   make([]int64, nLinks),
	}
	// Only random spraying draws; the other policies skip seeding a source.
	var rng *rand.Rand
	if cfg.Spray == SprayRandom {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}

	c := newEventCore(nLinks, len(flows), L, cfg.Arbiter, keyReadyAt)
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

	// Inject all packets at cycle 0.
	for fi, f := range flows {
		for k := 0; k < cfg.PacketsPerPair; k++ {
			res.TotalPackets++
			pathIdx := 0
			switch cfg.Spray {
			case SprayRoundRobin:
				pathIdx = k % len(f.Paths)
			case SprayRandom:
				pathIdx = rng.Intn(len(f.Paths))
			}
			if f.Paths[pathIdx].Len() == 0 {
				deliver(int32(fi), 0) // self-pair: no network traversal
				continue
			}
			c.pushPacket(0, c.newPacket(corePacket{flow: int32(fi), idx: int32(k), path: int32(pathIdx)}))
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
		p := &c.pkts[e.pkt]
		path := flows[p.flow].Paths[p.path]
		if int(p.hop) >= path.Len() {
			deliver(p.flow, e.time)
			continue
		}
		stage := 0
		if c.met != nil {
			stage = hopStage(int(p.hop), path.Len())
		}
		c.enqueue(path.Links[p.hop], e.pkt, e.time, stage)
	}
	if c.met != nil {
		c.met.EndRun(wall)
		res.Metrics = metricsOf(cfg.Collector)
	}
	return res, nil
}

// RunPermutation routes the pattern with the router, simulates it, and
// returns both the assignment and the result.
func RunPermutation(net *topology.Network, r routing.Router, p *permutation.Permutation, cfg Config) (*routing.Assignment, *Result, error) {
	a, err := r.Route(p)
	if err != nil {
		return nil, nil, err
	}
	res, err := Run(net, FlowsFromAssignment(a), cfg)
	if err != nil {
		return nil, nil, err
	}
	return a, res, nil
}

// CrossbarReference simulates the same pattern on an ideal N-port crossbar
// and returns the result — the paper's performance yardstick ("such an
// interconnect behaves like a crossbar switch").
func CrossbarReference(hosts int, p *permutation.Permutation, cfg Config) (*Result, error) {
	x := topology.NewCrossbar(hosts)
	r := routing.NewCrossbarRouter(x)
	_, res, err := RunPermutation(x.Net, r, p, cfg)
	return res, err
}

// ThroughputSummary aggregates relative performance over several patterns.
type ThroughputSummary struct {
	// Patterns is the number of permutations simulated.
	Patterns int `json:"patterns"`
	// MeanSlowdown and MaxSlowdown are relative to the crossbar
	// reference (1.0 = crossbar-equivalent).
	MeanSlowdown float64 `json:"mean_slowdown"`
	MaxSlowdown  float64 `json:"max_slowdown"`
	// MeanRelThroughput is the mean of 1/slowdown.
	MeanRelThroughput float64 `json:"mean_rel_throughput"`
	// MedianSlowdown is the median slowdown across patterns.
	MedianSlowdown float64 `json:"median_slowdown"`
}
