// Simulation: the Hoefler-style motivation experiment ([5], [7] in the
// paper). Classically "nonblocking" fat-trees with static routing deliver
// far less than crossbar throughput on random permutations; the paper's
// nonblocking construction matches the crossbar. Cycle-accurate packet
// simulation, distributed per-link arbitration.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	fclos "repro"
)

func main() {
	const (
		n      = 3  // hosts per bottom switch
		trials = 10 // random permutations per configuration
		seed   = 42
	)
	cfg := fclos.SimConfig{
		PacketFlits:    4,
		PacketsPerPair: 16,
		Arbiter:        fclos.ArbiterRoundRobin,
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\trouting\thosts\tmean slowdown\tmax slowdown\trel. throughput")

	// (a) The paper's nonblocking ftree(n+n², n+n²).
	nb := fclos.NewNonblockingFtree(n, n+n*n)
	paper, err := fclos.NewPaperDeterministic(nb)
	if err != nil {
		log.Fatal(err)
	}
	row(tw, nb.Net.Name, paper.Name(), nb.Ports(), must(fclos.CompareToCrossbar(nb.Net, paper, nb.Ports(), trials, 1, seed, cfg)))

	// (b) Same network, destination-mod static routing.
	row(tw, nb.Net.Name, "dest-mod", nb.Ports(), must(fclos.CompareToCrossbar(nb.Net, fclos.NewDestMod(nb), nb.Ports(), trials, 1, seed, cfg)))

	// (c) The rearrangeably nonblocking FT(N,2) with InfiniBand-style
	// destination routing — "nonblocking" on paper, blocking in practice.
	ft := fclos.NewMPortNTree(n+n*n, 2)
	row(tw, ft.Net.Name, "mnt-dest-mod", ft.Hosts(), must(fclos.CompareToCrossbar(ft.Net, fclos.NewMNTDestMod(ft), ft.Hosts(), trials, 1, seed, cfg)))

	// (d) FT(N,2) with frozen random routing [6].
	row(tw, ft.Net.Name, "mnt-random-fixed", ft.Hosts(), must(fclos.CompareToCrossbar(ft.Net, fclos.NewMNTRandomFixed(ft, seed), ft.Hosts(), trials, 1, seed, cfg)))

	tw.Flush()
	fmt.Println()
	fmt.Println("slowdown 1.0x = ideal crossbar. The nonblocking construction pays only")
	fmt.Println("its fixed pipeline depth; static routings serialize colliding flows.")
}

func row(tw *tabwriter.Writer, network, router string, hosts int, s *fclos.ThroughputSummary) {
	fmt.Fprintf(tw, "%s\t%s\t%d\t%.2fx\t%.2fx\t%.2f\n",
		network, router, hosts, s.MeanSlowdown, s.MaxSlowdown, s.MeanRelThroughput)
}

func must(s *fclos.ThroughputSummary, err error) *fclos.ThroughputSummary {
	if err != nil {
		log.Fatal(err)
	}
	return s
}
