// Command nbtables regenerates the paper's Table I and the derived
// experiment tables (the experiment index is DESIGN.md §5; the
// paper-vs-measured record is EXPERIMENTS.md). Every experiment in
// internal/experiments' registry that nbtables lists has a selection
// flag; selected experiments print in registry order.
//
// Usage:
//
//	nbtables -table1               # Table I (T1)
//	nbtables -theorem3             # E1: exact nonblocking + tightness
//	nbtables -lemma2               # E2: exact max pairs per top switch
//	nbtables -theorem1             # E3: small-top-switch port bound
//	nbtables -adaptive             # E4: NONBLOCKINGADAPTIVE scaling
//	nbtables -throughput           # E6: simulator comparison
//	nbtables -multipath            # E7: oblivious multipath blocking
//	nbtables -threelevel           # E8: recursive construction
//	nbtables -benes                # E9: centralized vs distributed at m≈n
//	nbtables -scaling              # Discussion cost scaling
//	nbtables -all                  # everything
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, prints the selected experiments to out and returns the
// exit status: 2 for a usage error (before any output), 1 for a failed
// experiment.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nbtables", flag.ContinueOnError)
	fs.SetOutput(errOut)
	p := experiments.DefaultParams()
	all := fs.Bool("all", false, "run every experiment")
	entries := experiments.Registry()
	selected := make([]*bool, len(entries))
	for i, e := range entries {
		if e.Flag != "" {
			selected[i] = fs.Bool(e.Flag, false, e.Usage)
		}
	}
	fs.IntVar(&p.Trials, "trials", p.Trials, "trials for randomized experiments")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "seed for randomized experiments")
	fs.IntVar(&p.SimN, "sim-n", p.SimN, "n for the throughput experiment (hosts = n(n+n²))")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(errOut, "nbtables:", err)
		fs.Usage()
		return 2
	}
	ran := false
	for i := range entries {
		if selected[i] == nil || !(*all || *selected[i]) {
			continue
		}
		if ran {
			fmt.Fprintln(out)
		}
		ran = true
		fmt.Fprintf(out, "== %s ==\n", entries[i].Title)
		if err := entries[i].RenderTables(out, p); err != nil {
			fmt.Fprintln(errOut, "nbtables:", err)
			return 1
		}
	}
	if !ran {
		fmt.Fprintln(errOut, "nbtables: no experiment selected; try -all (see -help)")
		return 1
	}
	return 0
}
