// Command nbreport runs the full experiment suite and writes a
// self-contained Markdown report — the reproducibility artifact backing
// EXPERIMENTS.md. Every number in the report is regenerated on the spot
// with the given seed; the sections are the entries of
// internal/experiments' registry that nbreport lists, in registry order.
//
// Usage:
//
//	nbreport                      # report to stdout
//	nbreport -seed 7 -trials 200  # heavier statistical sections
//	nbreport -fast                # CI-sized trial counts
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, writes the report to out and returns the exit status:
// 2 for a usage error (before any output), 1 for a failed section.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nbreport", flag.ContinueOnError)
	fs.SetOutput(errOut)
	p := experiments.DefaultParams()
	fs.IntVar(&p.Trials, "trials", p.Trials, "trials for randomized sections")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "seed for randomized sections")
	fast := fs.Bool("fast", false, "CI-sized trial counts (overrides -trials)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *fast {
		p.Trials = 20
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(errOut, "nbreport:", err)
		fs.Usage()
		return 2
	}

	start := time.Now()
	fmt.Fprintf(out, "# Reproduction report — Nonblocking Folded-Clos Networks (IPPS 2011)\n\n")
	fmt.Fprintf(out, "seed %d, %d trials per randomized section\n\n", p.Seed, p.Trials)
	for _, e := range experiments.Registry() {
		if e.Heading == "" {
			continue
		}
		fmt.Fprintf(out, "## %s\n\n```\n", e.Heading)
		if err := e.RenderReport(out, p); err != nil {
			fmt.Fprintln(errOut, "nbreport:", err)
			return 1
		}
		fmt.Fprint(out, "```\n\n")
	}
	fmt.Fprintf(out, "---\ngenerated in %s by cmd/nbreport\n", time.Since(start).Round(time.Millisecond))
	return 0
}
