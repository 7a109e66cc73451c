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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/api"
	"repro/internal/server"
)

func main() {
	var (
		topo       = flag.String("topo", "ftree", "ftree | mnt")
		n          = flag.Int("n", 4, "hosts per bottom switch (ftree)")
		m          = flag.Int("m", 0, "top switches (ftree); 0 = n²")
		r          = flag.Int("r", 20, "bottom switches (ftree)")
		ports      = flag.Int("ports", 20, "switch ports (mnt)")
		levels     = flag.Int("levels", 2, "levels (mnt)")
		scheme     = flag.String("routing", "paper", "paper | paper-folded | dest-mod | source-mod | dest-switch-mod | random-fixed | adaptive | greedy-local | global | spray (ftree); mnt-dest-mod | mnt-random (mnt)")
		sprayWidth = flag.Int("spray-width", 0, "paths per pair for -routing spray; 0 = all")
		pattern    = flag.String("pattern", "random", "random | shift | rotate | transpose")
		trials     = flag.Int("trials", 10, "random permutations (pattern=random)")
		seed       = flag.Int64("seed", 1, "seed")
		flits      = flag.Int("flits", 4, "flits per packet")
		pkts       = flag.Int("pkts", 8, "packets per SD pair")
		arbiter    = flag.String("arbiter", "round-robin", "round-robin | oldest-first")
		openloop   = flag.Bool("openloop", false, "open-loop rate sweep instead of closed-loop makespan (ftree single-path routings only)")
		workers    = flag.Int("workers", 0, "workers for -pattern random trials; 0 = GOMAXPROCS, 1 = sequential (the -openloop sweep always runs one goroutine per rate)")
		jsonOut    = flag.Bool("json", false, "emit the machine-readable /v1/sim JSON report (metrics payload included) instead of text")
	)
	flag.Parse()
	if err := run(os.Stdout, *topo, *n, *m, *r, *ports, *levels, *scheme, *sprayWidth,
		*pattern, *trials, *seed, *flits, *pkts, *arbiter, *openloop, *workers, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "nbsim:", err)
		os.Exit(1)
	}
}

// simReport is the -json output schema: the /v1/sim response
// (EXPERIMENTS.md, "Metrics schema"). Exactly one of Closed, Sweep,
// Trials is populated, keyed by Mode.
type simReport = api.SimReport

func emitJSON(out io.Writer, rep *simReport) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// run maps the flags onto a /v1/sim request, runs it through the service's
// engine (same defaults, ranges and caps), and renders the report as text
// or JSON.
func run(out io.Writer, topo string, n, m, r, ports, levels int, scheme string, sprayWidth int,
	pattern string, trials int, seed int64, flits, pkts int, arbiter string, openloop bool, workers int, jsonOut bool) error {
	// normalize would read a zero trial count as the service default.
	if pattern == "random" && !openloop && trials < 1 {
		return fmt.Errorf("-pattern random needs -trials >= 1 (got %d)", trials)
	}
	q := &api.Request{
		Topo: topo, N: n, M: m, R: r, Ports: ports, Levels: levels,
		Routing: scheme, SprayWidth: sprayWidth, Pattern: pattern, Trials: trials,
		Seed: api.SeedPtr(seed), Flits: flits, Pkts: pkts, Arbiter: arbiter,
		OpenLoop: openloop, Workers: workers,
	}
	rep, err := server.RunSimRequest(context.TODO(), q)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(out, rep)
	}
	fmt.Fprintf(out, "network: %s (%d hosts), routing: %s, packets: %d × %d flits, arbiter: %s\n",
		rep.Network, rep.Hosts, rep.Routing, q.Pkts, rep.PacketFlits, rep.Arbiter)
	switch {
	case rep.Sweep != nil:
		fmt.Fprintln(out, "open-loop sweep on the switch-shift permutation:")
		fmt.Fprintln(out, "offered  accepted  mean-latency  p99")
		for _, pt := range rep.Sweep {
			fmt.Fprintf(out, "%.2f     %.2f      %.1f          %d\n",
				pt.OfferedLoad, pt.AcceptedLoad, pt.MeanLatency, pt.P99Latency)
		}
	case rep.Trials != nil:
		sum := rep.Trials
		fmt.Fprintf(out, "random permutations: %d trials\n", sum.Patterns)
		fmt.Fprintf(out, "slowdown vs crossbar: mean %.2f, median %.2f, max %.2f\n",
			sum.MeanSlowdown, sum.MedianSlowdown, sum.MaxSlowdown)
		fmt.Fprintf(out, "mean relative throughput: %.2f\n", sum.MeanRelThroughput)
	default:
		c := rep.Closed
		fmt.Fprintf(out, "pattern: %s (%d pairs)\n", rep.Pattern, c.Pairs)
		fmt.Fprintf(out, "contended links: %d (max %d SD pairs on one link)\n", c.ContendedLinks, c.MaxLinkLoad)
		fmt.Fprintf(out, "makespan: %d cycles (crossbar %d), slowdown %.2f\n",
			c.Makespan, c.CrossbarMakespan, c.Slowdown)
		fmt.Fprintf(out, "mean packet latency: %.1f cycles, busiest link utilization %.2f\n",
			c.MeanLatency, c.Metrics.MaxUtilization())
	}
	return nil
}
