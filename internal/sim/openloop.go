package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/routing"
	"repro/internal/topology"
)

// OpenLoopConfig parameterizes an open-loop (rate-injected) simulation:
// every host injects packets to a fixed destination (a permutation's
// partner) as a Bernoulli process of the given rate, the classic
// offered-load/latency methodology of the adaptive-routing literature the
// paper cites ([9], [15]).
type OpenLoopConfig struct {
	// PacketFlits is the packet length L in flits.
	PacketFlits int
	// Rate is the injection probability per host per packet slot
	// (0 < Rate ≤ 1), i.e. offered load as a fraction of link capacity.
	Rate float64
	// WarmupPackets are injected but excluded from latency statistics.
	WarmupPackets int
	// MeasuredPackets are the packets per host that enter the statistics.
	MeasuredPackets int
	// Seed drives the injection process (and random multipath choice).
	Seed int64
	// Arbiter is the per-link scheduling policy.
	Arbiter Arbiter
	// MaxCycles aborts a saturated run; 0 means 5·10⁷.
	MaxCycles int64
	// Collector, when non-nil, receives observability events (see
	// Collector and the closed-loop Config field of the same name).
	Collector Collector
}

func (c *OpenLoopConfig) normalize() error {
	if c.PacketFlits <= 0 {
		return fmt.Errorf("sim: PacketFlits must be positive")
	}
	if c.Rate <= 0 || c.Rate > 1 {
		return fmt.Errorf("sim: Rate must be in (0, 1]")
	}
	if c.MeasuredPackets <= 0 {
		return fmt.Errorf("sim: MeasuredPackets must be positive")
	}
	if c.WarmupPackets < 0 {
		return fmt.Errorf("sim: WarmupPackets must be non-negative")
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 50_000_000
	}
	return nil
}

// OpenLoopResult summarizes an open-loop run.
type OpenLoopResult struct {
	// OfferedLoad is the configured injection rate.
	OfferedLoad float64
	// AcceptedLoad is the measured delivery rate: delivered flits per
	// host per cycle over the measurement window. Saturation shows as
	// AcceptedLoad < OfferedLoad.
	AcceptedLoad float64
	// MeanLatency is the mean packet latency (injection to delivery) of
	// measured packets, in cycles.
	MeanLatency float64
	// P99Latency is the 99th-percentile latency from the run's latency
	// histogram: exact below 4096 cycles, bucket-resolved above (see
	// Histogram).
	P99Latency int64
	// Delivered counts measured packets delivered.
	Delivered int
	// Undelivered counts packets (warmup and measured) still in flight
	// when the run aborted at MaxCycles; 0 for completed runs.
	Undelivered int
	// Saturated is set when the run aborted at MaxCycles with packets
	// still outstanding: the network could not drain the offered load.
	Saturated bool
	// Metrics is the observability payload when a default
	// MetricsCollector was attached (nil otherwise); it aliases the
	// collector's live memory — Clone to keep it across runs.
	Metrics *Metrics `json:"metrics,omitempty"`
}

// OpenLoop simulates Bernoulli packet injection for the SD pairs of a full
// permutation: host s sends to perm[s] at the configured rate. pathsFor
// returns the candidate paths of a pair; one is chosen uniformly per
// packet (single-path routers return one). The queueing runs on the same
// dense event core as the closed-loop engines, with OldestFirst keyed on
// the packet's injection cycle.
func OpenLoop(net *topology.Network, pairs [][2]int, pathsFor func(s, d int) ([]topology.Path, error), cfg OpenLoopConfig) (*OpenLoopResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	L := int64(cfg.PacketFlits)

	// Pre-resolve path sets.
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
	// Pre-draw injection times, flow by flow: a Bernoulli(rate) process
	// per packet slot of width L cycles approximates rate·capacity offered
	// load. Flow fi's times are injections[fi*totalPerFlow:][:totalPerFlow].
	injections := make([]int64, len(pairs)*totalPerFlow)
	for i := 0; i < len(injections); i += totalPerFlow {
		var t int64
		for k := i; k < i+totalPerFlow; t += L {
			if rng.Float64() < cfg.Rate {
				injections[k] = t
				k++
			}
		}
	}

	res := &OpenLoopResult{OfferedLoad: cfg.Rate}
	c := newEventCore(net.NumLinks(), len(pairs), L, cfg.Arbiter, keyInjection)
	c.reserve(len(injections))
	c.observe(cfg.Collector, net.NumLinks())
	// lat records measured end-to-end latencies; P99 comes from its
	// power-of-two-bucket quantile instead of a sort over a retained
	// latency slice (exact below 4096 cycles — see Histogram).
	var lat Histogram
	var firstMeasuredInjection, lastDelivery int64 = -1, 0

	// outstanding counts packets injected into the network and not yet
	// delivered; zero-hop (self-pair) packets never enter the network.
	outstanding := 0
	for fi := range pairs {
		for k, t := range injections[fi*totalPerFlow:][:totalPerFlow] {
			measured := k >= cfg.WarmupPackets
			if measured && (firstMeasuredInjection == -1 || t < firstMeasuredInjection) {
				firstMeasuredInjection = t
			}
			pathIdx := rng.Intn(len(pathSets[fi]))
			if pathSets[fi][pathIdx].Len() == 0 {
				if measured {
					lat.Observe(0)
					res.Delivered++
					if c.met != nil {
						c.met.PacketDelivered(0)
					}
				}
				continue
			}
			outstanding++
			c.pushPacket(t, c.newPacket(corePacket{
				flow: int32(fi), idx: int32(k), path: int32(pathIdx),
				arbKey: t, injected: t, measured: measured,
			}))
		}
	}

	var aborted bool
	res.Metrics, aborted = c.drive(cfg.MaxCycles, func(pi int32, now int64) {
		p := &c.pkts[pi]
		path := pathSets[p.flow][p.path]
		if int(p.hop) >= path.Len() {
			outstanding--
			if p.measured {
				res.Delivered++
				lat.Observe(now - p.injected)
				lastDelivery = max(lastDelivery, now)
				if c.met != nil {
					c.met.PacketDelivered(now - p.injected)
				}
			}
			return
		}
		stage := 0
		if c.met != nil {
			stage = hopStage(int(p.hop), path.Len())
		}
		c.enqueue(path.Links[p.hop], pi, now, stage)
	})
	if aborted {
		// Saturation means packets were still in flight, not merely that
		// a (possibly vacuous) event sat beyond the horizon.
		res.Saturated = outstanding > 0
		res.Undelivered = outstanding
	}

	if res.Delivered > 0 {
		res.MeanLatency = float64(lat.Sum) / float64(res.Delivered)
		res.P99Latency = lat.Quantile(0.99)
		window := lastDelivery - firstMeasuredInjection
		switch {
		case window > 0:
			res.AcceptedLoad = float64(res.Delivered) * float64(L) / float64(window) / float64(len(pairs))
		default:
			// Degenerate measurement window (a single measured packet, or
			// only zero-hop deliveries): every delivery kept pace with
			// injection, so the accepted load equals the offered load
			// rather than silently reporting 0.
			res.AcceptedLoad = cfg.Rate
		}
	}
	return res, nil
}

// LoadSweepPoint is one offered-load sample of a sweep.
type LoadSweepPoint struct {
	OfferedLoad  float64 `json:"offered_load"`
	AcceptedLoad float64 `json:"accepted_load"`
	MeanLatency  float64 `json:"mean_latency"`
	P99Latency   int64   `json:"p99_latency"`
	Saturated    bool    `json:"saturated,omitempty"`
	// Metrics is the point's detached observability snapshot when the
	// sweep's base config had a non-nil Collector (nil otherwise).
	Metrics *Metrics `json:"metrics,omitempty"`
}

// PairPathsFunc adapts a single-path deterministic router for OpenLoop.
func PairPathsFunc(r routing.PairRouter) func(s, d int) ([]topology.Path, error) {
	return func(s, d int) ([]topology.Path, error) {
		p, err := r.PathFor(s, d)
		if err != nil {
			return nil, err
		}
		return []topology.Path{p}, nil
	}
}

// AssignmentPathsFunc adapts a routed assignment (e.g. from the adaptive
// router, whose paths depend on the whole pattern) for OpenLoop.
func AssignmentPathsFunc(a *routing.Assignment) func(s, d int) ([]topology.Path, error) {
	idx := make(map[[2]int]int, len(a.Pairs))
	for i, pr := range a.Pairs {
		idx[[2]int{pr.Src, pr.Dst}] = i
	}
	return func(s, d int) ([]topology.Path, error) {
		i, ok := idx[[2]int{s, d}]
		if !ok {
			return nil, fmt.Errorf("sim: pair %d->%d not in assignment", s, d)
		}
		return a.PathSets[i], nil
	}
}

// PermPairs converts a full permutation destination vector into OpenLoop
// pairs, skipping self-pairs.
func PermPairs(dst []int) [][2]int {
	pairs := make([][2]int, 0, len(dst))
	for s, d := range dst {
		if d >= 0 && d != s {
			pairs = append(pairs, [2]int{s, d})
		}
	}
	return pairs
}
