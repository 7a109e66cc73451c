// Command ftree builds and describes the interconnect topologies of the
// repository, and exports them as Graphviz DOT.
//
// Usage:
//
//	ftree -topo ftree -n 4 -m 16 -r 20            # describe ftree(4+16,20)
//	ftree -topo nonblocking -n 4 -r 20            # ftree(n+n²,r)
//	ftree -topo mnt -ports 20 -levels 2           # FT(20,2)
//	ftree -topo kary -k 4 -levels 3               # 4-ary 3-tree
//	ftree -topo clos -n 3 -m 5 -r 4               # Clos(3,5,4)
//	ftree -topo three-level -n 2                  # recursive 3-level
//	ftree -topo crossbar -ports 16
//	ftree -topo benes -k 3                        # Benes B(3), 8 terminals
//	ftree -topo multi -n 2 -levels 3              # generic L-level nonblocking
//	ftree -topo ftree -n 2 -m 4 -r 5 -dot         # DOT to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/topology"
)

func main() {
	var (
		topo   = flag.String("topo", "ftree", "topology: ftree | nonblocking | mnt | kary | clos | three-level | multi | benes | crossbar")
		n      = flag.Int("n", 2, "hosts per bottom switch (ftree/nonblocking/clos/three-level)")
		m      = flag.Int("m", 4, "top/middle switches (ftree/clos)")
		r      = flag.Int("r", 5, "bottom switches (ftree/nonblocking/clos); three-level accepts only its canonical n³+n²")
		k      = flag.Int("k", 2, "arity (kary)")
		ports  = flag.Int("ports", 8, "switch ports (mnt) or host count (crossbar)")
		levels = flag.Int("levels", 2, "tree levels (mnt/kary)")
		dot    = flag.Bool("dot", false, "emit Graphviz DOT instead of a summary")
	)
	flag.Parse()
	if *topo == "three-level" && !flagSet("r") {
		*r = 0 // the canonical size
	}

	if err := run(os.Stdout, *topo, *n, *m, *r, *k, *ports, *levels, *dot); err != nil {
		fmt.Fprintln(os.Stderr, "ftree:", err)
		os.Exit(1)
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func run(out io.Writer, topo string, n, m, r, k, ports, levels int, dot bool) error {
	var (
		net      *topology.Network
		validate func() error
		summary  string
	)
	switch topo {
	case "ftree":
		f := topology.NewFoldedClos(n, m, r)
		net, validate = f.Net, f.Validate
		summary = fmt.Sprintf("%s: %d hosts, %d switches (%d bottom of radix %d, %d top of radix %d)",
			f.Net.Name, f.Ports(), f.Switches(), f.R, f.N+f.M, f.M, f.R)
	case "nonblocking":
		f := topology.NewFoldedClos(n, n*n, r)
		net, validate = f.Net, f.Validate
		summary = fmt.Sprintf("%s (nonblocking with the Theorem-3 routing): %d hosts, %d switches",
			f.Net.Name, f.Ports(), f.Switches())
	case "mnt":
		t := topology.NewMPortNTree(ports, levels)
		net, validate = t.Net, t.Validate
		summary = fmt.Sprintf("%s: %d hosts, %d switches (rearrangeably nonblocking; blocking under distributed control)",
			t.Net.Name, t.Hosts(), t.Switches())
	case "kary":
		t := topology.NewKAryNTree(k, levels)
		net, validate = t.Net, t.Validate
		summary = fmt.Sprintf("%s: %d hosts, %d switches", t.Net.Name, t.Hosts(), t.Switches())
	case "clos":
		c := topology.NewClos(n, m, r)
		net, validate = c.Net, c.Validate
		summary = fmt.Sprintf("%s: %d ports, strict-sense nonblocking iff m ≥ 2n−1 (%v), rearrangeable iff m ≥ n (%v) — telephone environment only",
			c.Net.Name, c.Ports(), m >= 2*n-1, m >= n)
	case "three-level":
		// The canonical three-level network: r = n³+n² bottom switches.
		// r = 0 selects it; any other size has no recursive construction.
		if canon := n*n*n + n*n; r != 0 && r != canon {
			return fmt.Errorf("three-level needs r = n³+n² = %d, got -r %d", canon, r)
		}
		t := topology.NewMultiFtree(n, 3)
		net, validate = t.Net, t.Validate
		summary = fmt.Sprintf("%s: %d hosts, %d switches (recursive nonblocking construction)",
			t.Net.Name, t.Ports(), t.Switches())
	case "multi":
		t := topology.NewMultiFtree(n, levels)
		net, validate = t.Net, t.Validate
		summary = fmt.Sprintf("%s: %d hosts, %d switches of %d ports (generic recursive nonblocking)",
			t.Net.Name, t.Ports(), t.Switches(), t.SwitchRadix())
	case "benes":
		b := topology.NewBenes(k)
		net, validate = b.Net, b.Validate
		summary = fmt.Sprintf("%s: %d terminals, %d stages of %d 2x2 switches (rearrangeable via looping)",
			b.Net.Name, b.N, b.Stages(), b.N/2)
	case "crossbar":
		x := topology.NewCrossbar(ports)
		net, validate = x.Net, func() error { return nil }
		summary = fmt.Sprintf("%s: %d hosts, 1 switch (reference interconnect)", x.Net.Name, x.N)
	default:
		return fmt.Errorf("unknown topology %q", topo)
	}
	if err := validate(); err != nil {
		return err
	}
	if dot {
		return topology.WriteDOT(out, net)
	}
	fmt.Fprintln(out, summary)
	fmt.Fprintf(out, "nodes: %d, directed links: %d, strongly connected: %v\n",
		net.NumNodes(), net.NumLinks(), net.Connected())
	return nil
}
