// Command nbverify decides whether a folded-Clos network is nonblocking in
// the computer-communication sense (Definition 2 of the paper) under a
// chosen routing scheme.
//
// For single-path deterministic routers the decision is exact via the
// Lemma-1 all-pairs analysis; for adaptive routers it runs an exhaustive
// sweep on tiny networks and a seeded randomized+structured sweep
// otherwise. When the answer is "blocking" it prints a concrete blocked
// permutation.
//
// Usage:
//
//	nbverify -n 4 -m 16 -r 20 -routing paper        # exact: nonblocking
//	nbverify -n 4 -m 15 -r 20 -routing paper-folded # exact: blocking + witness
//	nbverify -n 2 -m 12 -r 4 -routing adaptive      # sweep
//	nbverify -n 4 -m 16 -r 20 -routing dest-mod     # exact: blocking
//	nbverify -n 4 -m 4  -r 20 -routing global       # centralized baseline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func main() {
	var (
		n       = flag.Int("n", 4, "hosts per bottom switch")
		m       = flag.Int("m", 16, "top-level switches")
		r       = flag.Int("r", 20, "bottom-level switches")
		scheme  = flag.String("routing", "paper", "paper | paper-folded | dest-mod | source-mod | dest-switch-mod | random-fixed | adaptive | greedy-local | global | spray")
		sprayW  = flag.Int("spray-width", 0, "spray path fan-out (0 or >= m sprays over all m trunks)")
		trials  = flag.Int("trials", 500, "random permutations for sweep-based verification")
		seed    = flag.Int64("seed", 1, "sweep seed")
		maxExh  = flag.Int("max-exhaustive", 9, "use exhaustive sweep up to this many hosts")
		firstB  = flag.Bool("first-blocked", false, "stop the exhaustive sweep at the first blocked pattern")
		sym     = flag.Bool("sym", false, "reduce the exhaustive sweep over the fabric's host-relabeling symmetry group (byte-identical verdict; enables sweeps past the factorial wall where the routing is equivariant)")
		verbose = flag.Bool("v", false, "print per-link detail for violations")
		pattern = flag.String("pattern", "", `check one explicit pattern, e.g. "0->4 2->5", instead of deciding nonblocking`)
		remote  = flag.String("remote", "", "nbserve address (host:port): submit the sweep to a remote node and stream its progress")

		failures = flag.Bool("failures", false, "run a fault-injection campaign instead of a verification: sweep failure counts, compare fault-routing schemes")
		failScen = flag.String("fail-scenario", "tops", "failure scenario: links | tops | tops-correlated | pods")
		failMax  = flag.Int("fail-max", 4, "largest failure count swept")
		failSam  = flag.Int("fail-samples", 3, "failure sets sampled per count")
		failTri  = flag.Int("fail-trials", 50, "random surviving-host permutations per failure set")
		failSch  = flag.String("fail-schemes", "", "comma-separated campaign schemes (default: all four)")
		failSim  = flag.Bool("fail-sim", false, "also measure open-loop accepted load per failure set")
		failWrk  = flag.Int("fail-workers", 0, "campaign worker pool size (0 or 1: sequential; output is identical either way)")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels a long-running sweep instead of killing the
	// process mid-output; a cancelled run exits nonzero with context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *failures {
		o := failOpts{scenario: *failScen, max: *failMax, samples: *failSam,
			trials: *failTri, schemes: *failSch, sim: *failSim, workers: *failWrk}
		var err error
		if *remote != "" {
			err = runFailuresRemote(ctx, os.Stdout, *remote, *n, *m, *r, *seed, o)
		} else {
			err = runFailures(ctx, os.Stdout, *n, *m, *r, *seed, o)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbverify:", err)
			os.Exit(1)
		}
		return
	}

	if *remote != "" {
		q, err := remoteRequest(*n, *m, *r, *scheme, *sprayW, *seed, *maxExh, *firstB, *sym, *pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbverify:", err)
			os.Exit(2)
		}
		if err := runRemote(ctx, os.Stdout, *remote, q); err != nil {
			fmt.Fprintln(os.Stderr, "nbverify:", err)
			os.Exit(1)
		}
		return
	}

	if err := runCtx(ctx, os.Stdout, *n, *m, *r, *scheme, *sprayW, *trials, *seed, *maxExh, *firstB, *sym, *verbose, *pattern); err != nil {
		fmt.Fprintln(os.Stderr, "nbverify:", err)
		os.Exit(1)
	}
}

func runCtx(ctx context.Context, out io.Writer, n, m, r int, scheme string, sprayWidth, trials int, seed int64, maxExh int, firstBlocked, sym, verbose bool, pattern string) error {
	f := topology.NewFoldedClos(n, m, r)
	fmt.Fprintf(out, "network: %s (%d hosts, %d switches)\n", f.Net.Name, f.Ports(), f.Switches())

	router, err := routing.NewFtreeRouter(f, scheme, sprayWidth, seed)
	if errors.Is(err, routing.ErrUnknownScheme) {
		return fmt.Errorf("unknown routing %q", scheme)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "routing: %s\n", router.Name())

	if pattern != "" {
		p, err := permutation.Parse(f.Ports(), pattern)
		if err != nil {
			return err
		}
		a, err := router.Route(p)
		if err != nil {
			return err
		}
		rep := analysis.Check(a)
		if rep.HasContention() {
			fmt.Fprintf(out, "pattern %s: CONTENTION — %v\n", p, rep.ContentionError())
		} else {
			fmt.Fprintf(out, "pattern %s: contention-free (max link load %d)\n", p, rep.MaxLoad)
		}
		return nil
	}

	if pr, ok := router.(routing.PairRouter); ok {
		res, err := analysis.CheckLemma1AllPairs(pr, f.Ports())
		if err != nil {
			return err
		}
		if res.Nonblocking {
			fmt.Fprintln(out, "verdict: NONBLOCKING (exact, Lemma-1 all-pairs analysis)")
			return nil
		}
		fmt.Fprintln(out, "verdict: BLOCKING (exact, Lemma-1 all-pairs analysis)")
		w, err := analysis.BlockingWitness(res, f.Ports())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "blocked permutation: %s\n", w)
		if verbose && res.Violation != nil {
			lk := f.Net.Link(res.Violation.Link)
			fmt.Fprintf(out, "violated link: %s -> %s with %d sources and %d destinations\n",
				f.Net.Node(lk.From).Label, f.Net.Node(lk.To).Label,
				len(res.Violation.Sources), len(res.Violation.Dests))
		}
		return nil
	}

	if !sym && f.Ports() > maxExh {
		res, err := analysis.SweepRandomCtx(ctx, router, f.Ports(), trials, seed)
		if err != nil {
			return err
		}
		report(out, res, "randomized+structured")
		return res.RouteErr
	}
	spec := analysis.Spec{FirstBlocked: firstBlocked}
	if sym {
		// -sym forces the exhaustive decision through the symmetry-reduced
		// engine: where the reduction applies, even hosts! past the
		// -max-exhaustive wall collapse to a feasible count of orbit
		// representatives. Past the wall with no applicable reduction there
		// is nothing safe to fall back to, so that is an error rather than
		// a silent factorial sweep.
		if st := analysis.SymApplicable(router, f.Ports(), n); !st.Applied && f.Ports() > maxExh {
			return fmt.Errorf("symmetry reduction not applicable (%s) and %d hosts exceed -max-exhaustive=%d; the full %d! sweep needs that explicit opt-in",
				st.Reason, f.Ports(), maxExh, f.Ports())
		}
		spec.SymBlock = n
	}
	res, stats, err := analysis.Sweep(ctx, router, f.Ports(), spec)
	if err != nil {
		return err
	}
	switch {
	case stats == nil:
	case stats.Applied:
		fmt.Fprintf(out, "symmetry: %d orbit representatives for %d patterns (group order %d)\n",
			stats.Orbits, permutation.CountFull(f.Ports()), stats.GroupOrder)
	default:
		fmt.Fprintf(out, "symmetry: fell back to the full sweep: %s\n", stats.Reason)
	}
	kind := "exhaustive"
	if firstBlocked {
		kind = "exhaustive (first-blocked)"
	}
	report(out, res, kind)
	return res.RouteErr
}

func report(out io.Writer, res *analysis.SweepResult, kind string) {
	if res.RouteErr != nil {
		fmt.Fprintf(out, "verdict: ROUTING FAILED during %s sweep: %v\n", kind, res.RouteErr)
		return
	}
	if res.Blocked == 0 {
		fmt.Fprintf(out, "verdict: no blocking found over %d %s patterns (max link load %d)\n",
			res.Tested, kind, res.MaxLinkLoad)
		return
	}
	fmt.Fprintf(out, "verdict: BLOCKING — %d of %d %s patterns contended\n", res.Blocked, res.Tested, kind)
	fmt.Fprintf(out, "first blocked permutation: %s\n", res.FirstBlocked)
}
