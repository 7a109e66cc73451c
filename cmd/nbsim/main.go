// Command nbsim runs the cycle-accurate packet simulator on a folded-Clos
// or m-port n-tree network and reports permutation throughput against the
// ideal crossbar — the experiment behind the paper's motivation ([5], [7])
// and its central claim that a nonblocking folded-Clos behaves like a
// crossbar switch.
//
// Usage:
//
//	nbsim -n 4 -r 20 -routing paper -trials 20          # nonblocking ftree
//	nbsim -n 4 -r 20 -routing dest-mod                  # static routing blocks
//	nbsim -topo mnt -ports 20 -routing mnt-dest-mod     # FT(20,2) baseline
//	nbsim -n 4 -r 20 -routing spray -spray-width 4      # oblivious multipath
//	nbsim -n 2 -r 12 -routing adaptive -pattern shift   # one structured pattern
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	var (
		topo       = flag.String("topo", "ftree", "ftree | mnt")
		n          = flag.Int("n", 4, "hosts per bottom switch (ftree)")
		m          = flag.Int("m", 0, "top switches (ftree); 0 = n²")
		r          = flag.Int("r", 20, "bottom switches (ftree)")
		ports      = flag.Int("ports", 20, "switch ports (mnt)")
		levels     = flag.Int("levels", 2, "levels (mnt)")
		scheme     = flag.String("routing", "paper", "paper | dest-mod | adaptive | global | spray | mnt-dest-mod | mnt-random")
		sprayWidth = flag.Int("spray-width", 0, "paths per pair for -routing spray; 0 = all")
		pattern    = flag.String("pattern", "random", "random | shift | rotate | transpose")
		trials     = flag.Int("trials", 10, "random permutations (pattern=random)")
		seed       = flag.Int64("seed", 1, "seed")
		flits      = flag.Int("flits", 4, "flits per packet")
		pkts       = flag.Int("pkts", 8, "packets per SD pair")
		arbiter    = flag.String("arbiter", "round-robin", "round-robin | oldest-first")
		openloop   = flag.Bool("openloop", false, "open-loop rate sweep instead of closed-loop makespan (ftree single-path routings only)")
		workers    = flag.Int("workers", 0, "workers for -pattern random trials; 0 = GOMAXPROCS, 1 = sequential (the -openloop sweep always runs one goroutine per rate)")
		jsonOut    = flag.Bool("json", false, "emit a machine-readable JSON report (enables the metrics collector) instead of text")
	)
	flag.Parse()
	if err := run(os.Stdout, *topo, *n, *m, *r, *ports, *levels, *scheme, *sprayWidth,
		*pattern, *trials, *seed, *flits, *pkts, *arbiter, *openloop, *workers, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "nbsim:", err)
		os.Exit(1)
	}
}

// simReport is the -json output schema (documented in EXPERIMENTS.md,
// "Metrics schema"), shared with the nbserve /v1/sim endpoint so CLI and
// service tooling interoperate. Exactly one of Closed, Sweep, Trials is
// populated, keyed by Mode; metrics payloads round-trip through
// encoding/json.
type simReport = api.SimReport

// closedReport is the closed-loop (single structured pattern) section.
type closedReport = api.ClosedReport

func emitJSON(out io.Writer, rep *simReport) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func run(out io.Writer, topo string, n, m, r, ports, levels int, scheme string, sprayWidth int,
	pattern string, trials int, seed int64, flits, pkts int, arbiter string, openloop bool, workers int, jsonOut bool) error {
	if pattern == "random" && !openloop && trials < 1 {
		return fmt.Errorf("-pattern random needs -trials >= 1 (got %d)", trials)
	}
	cfg := sim.Config{PacketFlits: flits, PacketsPerPair: pkts, Seed: seed}
	switch arbiter {
	case "round-robin":
		cfg.Arbiter = sim.RoundRobin
	case "oldest-first":
		cfg.Arbiter = sim.OldestFirst
	default:
		return fmt.Errorf("unknown arbiter %q", arbiter)
	}

	var (
		net    *topology.Network
		router routing.Router
		hosts  int
	)
	switch topo {
	case "ftree":
		if m == 0 {
			m = n * n
		}
		f := topology.NewFoldedClos(n, m, r)
		net, hosts = f.Net, f.Ports()
		switch scheme {
		case "paper":
			pr, err := routing.NewPaperDeterministic(f)
			if err != nil {
				return err
			}
			router = pr
		case "dest-mod":
			router = routing.NewDestMod(f)
		case "adaptive":
			ad, err := routing.NewNonblockingAdaptive(f)
			if err != nil {
				return err
			}
			router = ad
		case "global":
			router = routing.NewGlobalRearrangeable(f)
		case "spray":
			if sprayWidth <= 0 || sprayWidth >= f.M {
				router = routing.NewFullSpray(f)
			} else {
				ks, err := routing.NewKSpray(f, sprayWidth)
				if err != nil {
					return err
				}
				router = ks
			}
		default:
			return fmt.Errorf("routing %q not available on ftree", scheme)
		}
	case "mnt":
		t := topology.NewMPortNTree(ports, levels)
		net, hosts = t.Net, t.Hosts()
		switch scheme {
		case "mnt-dest-mod":
			router = routing.NewMNTDestMod(t)
		case "mnt-random":
			router = routing.NewMNTRandomFixed(t, seed)
		default:
			return fmt.Errorf("routing %q not available on mnt", scheme)
		}
	default:
		return fmt.Errorf("unknown topology %q", topo)
	}

	rep := &simReport{
		Network: net.Name, Hosts: hosts, Routing: router.Name(),
		PacketFlits: flits, Arbiter: cfg.Arbiter.String(),
	}
	if !jsonOut {
		fmt.Fprintf(out, "network: %s (%d hosts), routing: %s, packets: %d × %d flits, arbiter: %s\n",
			net.Name, hosts, router.Name(), pkts, flits, cfg.Arbiter)
	}

	if openloop {
		if topo != "ftree" {
			return fmt.Errorf("-openloop supports -topo ftree only")
		}
		pr, ok := router.(routing.PairRouter)
		if !ok {
			return fmt.Errorf("-openloop needs a single-path deterministic routing (got %s)", router.Name())
		}
		perm := permutation.SwitchShift(n, r, 1)
		dst := make([]int, perm.N())
		for i := 0; i < perm.N(); i++ {
			dst[i] = perm.Dst(i)
		}
		pairs := sim.PermPairs(dst)
		base := sim.OpenLoopConfig{
			PacketFlits:     flits,
			WarmupPackets:   20,
			MeasuredPackets: 100,
			Seed:            seed,
			Arbiter:         cfg.Arbiter,
		}
		if jsonOut {
			base.Collector = sim.NewMetricsCollector()
		}
		rates := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
		points, err := sim.LoadSweepParallel(net, pairs, sim.PairPathsFunc(pr), rates, base)
		if err != nil {
			return err
		}
		if jsonOut {
			rep.Mode, rep.Pattern, rep.Sweep = "open-loop", "switch-shift", points
			return emitJSON(out, rep)
		}
		fmt.Fprintln(out, "open-loop sweep on the switch-shift permutation:")
		fmt.Fprintln(out, "offered  accepted  mean-latency  p99")
		for _, pt := range points {
			fmt.Fprintf(out, "%.2f     %.2f      %.1f          %d\n",
				pt.OfferedLoad, pt.AcceptedLoad, pt.MeanLatency, pt.P99Latency)
		}
		return nil
	}

	if pattern == "random" {
		sum, err := sim.CompareToCrossbar(net, router, hosts, trials, workers, seed, cfg)
		if err != nil {
			return err
		}
		if jsonOut {
			rep.Mode, rep.Pattern, rep.PacketsPerPair, rep.Trials = "random-trials", "random", pkts, sum
			return emitJSON(out, rep)
		}
		fmt.Fprintf(out, "random permutations: %d trials\n", sum.Patterns)
		fmt.Fprintf(out, "slowdown vs crossbar: mean %.2f, median %.2f, max %.2f\n",
			sum.MeanSlowdown, sum.MedianSlowdown, sum.MaxSlowdown)
		fmt.Fprintf(out, "mean relative throughput: %.2f\n", sum.MeanRelThroughput)
		return nil
	}

	var p *permutation.Permutation
	switch pattern {
	case "shift":
		p = permutation.Shift(hosts, hosts/2)
	case "rotate":
		if topo != "ftree" {
			return fmt.Errorf("pattern rotate needs -topo ftree")
		}
		p = permutation.LocalRotate(n, r)
	case "transpose":
		d := 2
		for d*d < hosts {
			d++
		}
		if d*d != hosts {
			return fmt.Errorf("transpose needs a square host count, have %d", hosts)
		}
		p = permutation.Transpose(d, d)
	default:
		return fmt.Errorf("unknown pattern %q", pattern)
	}
	if jsonOut {
		cfg.Collector = sim.NewMetricsCollector()
	}
	a, res, err := sim.RunPermutation(net, router, p, cfg)
	if err != nil {
		return err
	}
	if res.Metrics != nil {
		// Detach from the collector before the crossbar reference reuses it.
		res.Metrics = res.Metrics.Clone()
	}
	cfg.Collector = nil
	chk := analysis.Check(a)
	ref, err := sim.CrossbarReference(hosts, p, cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		rep.Mode, rep.Pattern, rep.PacketsPerPair = "closed-loop", pattern, pkts
		rep.Closed = &closedReport{
			Pairs:            p.Size(),
			ContendedLinks:   len(chk.Contended),
			MaxLinkLoad:      chk.MaxLoad,
			Makespan:         res.Makespan,
			CrossbarMakespan: ref.Makespan,
			Slowdown:         res.Slowdown(ref),
			MeanLatency:      res.MeanLatency(),
			Metrics:          res.Metrics,
		}
		return emitJSON(out, rep)
	}
	fmt.Fprintf(out, "pattern: %s (%d pairs)\n", pattern, p.Size())
	fmt.Fprintf(out, "contended links: %d (max %d SD pairs on one link)\n", len(chk.Contended), chk.MaxLoad)
	fmt.Fprintf(out, "makespan: %d cycles (crossbar %d), slowdown %.2f\n",
		res.Makespan, ref.Makespan, res.Slowdown(ref))
	fmt.Fprintf(out, "mean packet latency: %.1f cycles, busiest link utilization %.2f\n",
		res.MeanLatency(), res.MaxLinkUtilization())
	return nil
}
