// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the derived experiments that validate each theorem and
// lemma empirically (the experiment index lives in DESIGN.md §5 and the
// paper-vs-measured record in EXPERIMENTS.md). Each experiment returns a
// structured result and renders a human-readable table; cmd/nbtables and
// the repository benchmarks are thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/conditions"
	"repro/internal/cost"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TableIResult is experiment T1: the paper's Table I.
type TableIResult struct {
	Rows []cost.TableIRow
}

// TableI regenerates Table I with the paper's 20/30/42-port building
// blocks.
func TableI() *TableIResult {
	return &TableIResult{Rows: cost.PaperTableI()}
}

// Render writes the table.
func (t *TableIResult) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "switch\tnonblocking ftree(n+n²,n+n²)\t\trearrangeable FT(N,2)\t")
	fmt.Fprintln(tw, "ports\t# switches\t# ports\t# switches\t# ports")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n",
			r.SwitchPorts, r.Nonblocking.Switches, r.Nonblocking.Ports,
			r.Rearrangeable.Switches, r.Rearrangeable.Ports)
	}
	tw.Flush()
	fmt.Fprintln(w, "note: the paper prints 88 switches / 884 ports in the 42-port row;")
	fmt.Fprintln(w, "      the construction yields 2n²+n = 78 and N²/2 = 882 (see EXPERIMENTS.md).")
}

// Theorem3Row is one verification case of experiment E1.
type Theorem3Row struct {
	N, R        int
	Nonblocking bool
	// TightM is n²−1; TightBlocks reports that the under-provisioned
	// folded routing admits a blocking permutation (Theorem 2 tightness).
	TightM      int
	TightBlocks bool
	// Witness is a blocked two-pair permutation on the tight instance.
	Witness string
}

// Theorem3Result is experiment E1.
type Theorem3Result struct {
	Rows []Theorem3Row
}

// Theorem3 verifies the Theorem-3 routing exactly (Lemma 1 over all SD
// pairs) for each (n, r), and demonstrates tightness of m ≥ n² by finding
// a blocking permutation at m = n²−1.
func Theorem3(cases [][2]int) (*Theorem3Result, error) {
	res := &Theorem3Result{}
	for _, c := range cases {
		n, r := c[0], c[1]
		f := topology.NewFoldedClos(n, n*n, r)
		rt, err := routing.NewPaperDeterministic(f)
		if err != nil {
			return nil, err
		}
		l1, err := analysis.CheckLemma1AllPairs(rt, f.Ports())
		if err != nil {
			return nil, err
		}
		row := Theorem3Row{N: n, R: r, Nonblocking: l1.Nonblocking, TightM: n*n - 1}
		if n >= 2 {
			tight := topology.NewFoldedClos(n, n*n-1, r)
			tr := routing.NewPaperDeterministicFolded(tight)
			d, err := analysis.Decide(context.Background(), tr, tight.Ports(), analysis.DecideSpec{Rung: analysis.RungLemma1})
			if err != nil {
				return nil, err
			}
			if d.Witness != nil {
				row.TightBlocks, row.Witness = true, d.Witness.String()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the verification table.
func (t *Theorem3Result) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ftree\tm=n² nonblocking\tm=n²−1 blocks\twitness")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "ftree(%d+%d,%d)\t%v\t%v\t%s\n", r.N, r.N*r.N, r.R, r.Nonblocking, r.TightBlocks, r.Witness)
	}
	tw.Flush()
}

// Lemma2Row is one instance of experiment E2.
type Lemma2Row struct {
	N, R int
	// Exact is the mode-search maximum of SD pairs through one root.
	Exact int
	// Cap is the paper's closed-form bound.
	Cap int
	// Tight reports Exact == Cap.
	Tight bool
	// WitnessOK confirms the constructive pair set checks out.
	WitnessOK bool
}

// Lemma2Result is experiment E2.
type Lemma2Result struct {
	Rows []Lemma2Row
}

// Lemma2 computes the exact maximum load of a single top-level switch for
// every (n, r) in the ranges and compares with the paper's caps.
func Lemma2(ns, rs []int) *Lemma2Result {
	res := &Lemma2Result{}
	for _, n := range ns {
		for _, r := range rs {
			exact := analysis.MaxRootPairsModes(n, r)
			witness := analysis.RootSetWitness(n, r)
			ok := analysis.CheckRootSet(n, r, witness) == nil && len(witness) == exact
			cap := conditions.Lemma2Cap(n, r)
			res.Rows = append(res.Rows, Lemma2Row{
				N: n, R: r, Exact: exact, Cap: cap, Tight: exact == cap, WitnessOK: ok,
			})
		}
	}
	return res
}

// Render writes the Lemma-2 table.
func (t *Lemma2Result) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tr\texact max\tpaper cap\ttight\tregime")
	for _, r := range t.Rows {
		regime := "r ≥ 2n+1: r(r−1)"
		if r.R < 2*r.N+1 {
			regime = "r < 2n+1: 2nr"
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\t%s\n", r.N, r.R, r.Exact, r.Cap, r.Tight, regime)
	}
	tw.Flush()
}

// Theorem1Row is one row of experiment E3.
type Theorem1Row struct {
	N, R int
	// MinM is the Lemma-2 consequence ⌈(r−1)n/2⌉.
	MinM int
	// Ports is r·n; Bound is 2(n+MinM).
	Ports, Bound int
}

// Theorem1Result is experiment E3.
type Theorem1Result struct {
	Rows []Theorem1Row
}

// Theorem1 tabulates the small-top-switch regime: for r ≤ 2n+1 the port
// count never exceeds 2(n+m).
func Theorem1(ns []int) *Theorem1Result {
	res := &Theorem1Result{}
	for _, n := range ns {
		for r := 2; r <= 2*n+1; r++ {
			m := conditions.SmallTopMinM(n, r)
			res.Rows = append(res.Rows, Theorem1Row{
				N: n, R: r, MinM: m,
				Ports: n * r, Bound: conditions.Theorem1PortBound(n, m),
			})
		}
	}
	return res
}

// Render writes the Theorem-1 table.
func (t *Theorem1Result) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tr\tmin m\tports r·n\tbound 2(n+m)\tports ≤ bound")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%v\n", r.N, r.R, r.MinM, r.Ports, r.Bound, r.Ports <= r.Bound)
	}
	tw.Flush()
}

// AdaptiveRow is one point of experiment E4.
type AdaptiveRow struct {
	N, R, C int
	// MeasuredRandom / MeasuredAdversarial are the top-switch demands of
	// NONBLOCKINGADAPTIVE over random and adversarial permutations.
	MeasuredRandom, MeasuredAdversarial int
	// FirstFit is the ablation's adversarial demand.
	FirstFit int
	// SimpleBound, Theorem5Budget and DetMinM are the analytic lines.
	SimpleBound, Theorem5Budget, DetMinM int
}

// AdaptiveResult is experiment E4.
type AdaptiveResult struct {
	Rows []AdaptiveRow
}

// Adaptive measures how many top-level switches NONBLOCKINGADAPTIVE needs
// as n grows with r = n² (c = 2), against the deterministic n² and the
// paper's bounds.
func Adaptive(ns []int, trials int, seed int64) (*AdaptiveResult, error) {
	res := &AdaptiveResult{}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range ns {
		r := n * n
		f := topology.NewFoldedClos(n, 1, r) // m irrelevant for Plan
		ad, err := routing.NewNonblockingAdaptive(f)
		if err != nil {
			return nil, err
		}
		ff := &routing.NonblockingAdaptive{F: f, C: ad.C, FirstFit: true}
		row := AdaptiveRow{
			N: n, R: r, C: ad.C,
			SimpleBound:    conditions.AdaptiveSimpleM(n, ad.C),
			Theorem5Budget: conditions.AdaptiveTheorem5M(n, ad.C),
			DetMinM:        conditions.DeterministicMinM(n),
		}
		for i := 0; i < trials; i++ {
			p := permutation.Random(rng, f.Ports())
			need, err := ad.RequiredM(p)
			if err != nil {
				return nil, err
			}
			if need > row.MeasuredRandom {
				row.MeasuredRandom = need
			}
		}
		adv := permutation.GreedyLowSpread(n, r, ad.C)
		if row.MeasuredAdversarial, err = ad.RequiredM(adv); err != nil {
			return nil, err
		}
		if row.FirstFit, err = ff.RequiredM(adv); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the adaptive scaling table.
func (t *AdaptiveResult) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tr=n²\tc\tmeasured(random)\tmeasured(adversarial)\tfirst-fit ablation\tsimple bound\tThm-5 budget\tdeterministic n²")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.N, r.R, r.C, r.MeasuredRandom, r.MeasuredAdversarial, r.FirstFit,
			r.SimpleBound, r.Theorem5Budget, r.DetMinM)
	}
	tw.Flush()
}

// ThroughputRow is one router's line in experiment E6.
type ThroughputRow struct {
	Network, Router               string
	MeanSlowdown, MaxSlowdown     float64
	MedianSlowdown, RelThroughput float64
}

// ThroughputResult is experiment E6.
type ThroughputResult struct {
	Hosts, Trials int
	Rows          []ThroughputRow
}

// Throughput runs the Hoefler-style comparison: random permutations under
// (a) the paper's nonblocking ftree, (b) the same ftree with destination-
// mod static routing, (c) a same-radix FT(N,2) with destination-mod
// routing, (d) FT(N,2) with frozen random routing — all against the
// crossbar reference.
func Throughput(n, trials int, seed int64, cfg sim.Config) (*ThroughputResult, error) {
	if n < 1 || trials < 1 {
		return nil, fmt.Errorf("experiments: Throughput needs n >= 1, trials >= 1 (got n=%d trials=%d)", n, trials)
	}
	r := n + n*n // same-radix comparison: every switch has N = n+n² ports
	nb := topology.NewFoldedClos(n, n*n, r)
	paper, err := routing.NewPaperDeterministic(nb)
	if err != nil {
		return nil, err
	}
	hosts := nb.Ports()
	res := &ThroughputResult{Hosts: hosts, Trials: trials}

	add := func(network string, net *topology.Network, rt routing.Router, hostCount int) error {
		sum, err := sim.CompareToCrossbar(net, rt, hostCount, trials, 1, seed, cfg)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, ThroughputRow{
			Network: network, Router: rt.Name(),
			MeanSlowdown: sum.MeanSlowdown, MaxSlowdown: sum.MaxSlowdown,
			MedianSlowdown: sum.MedianSlowdown, RelThroughput: sum.MeanRelThroughput,
		})
		return nil
	}
	if err := add(nb.Net.Name, nb.Net, paper, hosts); err != nil {
		return nil, err
	}
	if err := add(nb.Net.Name, nb.Net, routing.NewDestMod(nb), hosts); err != nil {
		return nil, err
	}
	ft := topology.NewMPortNTree(n+n*n, 2)
	if err := add(ft.Net.Name, ft.Net, routing.NewMNTDestMod(ft), ft.Hosts()); err != nil {
		return nil, err
	}
	if err := add(ft.Net.Name, ft.Net, routing.NewMNTRandomFixed(ft, seed), ft.Hosts()); err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the throughput comparison.
func (t *ThroughputResult) Render(w io.Writer) {
	fmt.Fprintf(w, "random permutations, slowdown vs ideal crossbar (1.00 = crossbar), %d trials\n", t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\trouting\tmean\tmedian\tmax\trel. throughput")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Network, r.Router, r.MeanSlowdown, r.MedianSlowdown, r.MaxSlowdown, r.RelThroughput)
	}
	tw.Flush()
}

// MultipathRow is one spray width of experiment E7.
type MultipathRow struct {
	Router        string
	BlockFraction float64
	MeanMaxLoad   float64
}

// MultipathResult is experiment E7.
type MultipathResult struct {
	N, M, R, Trials int
	Rows            []MultipathRow
}

// Multipath estimates blocking probability over random permutations for
// oblivious multipath schemes of increasing width on ftree(n+n², r),
// versus the single-path Theorem-3 scheme (width 1, zero blocking): §IV.B —
// spraying does not relax the nonblocking condition.
func Multipath(n, r, trials int, seed int64) (*MultipathResult, error) {
	f := topology.NewFoldedClos(n, n*n, r)
	res := &MultipathResult{N: n, M: n * n, R: r, Trials: trials}
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		return nil, err
	}
	routers := []routing.Router{paper}
	for _, w := range []int{2, n, n * n} {
		if w <= f.M {
			ks, err := routing.NewKSpray(f, w)
			if err != nil {
				return nil, err
			}
			routers = append(routers, ks)
		}
	}
	routers = append(routers, routing.NewFullSpray(f))
	for _, rt := range routers {
		frac, load, err := analysis.BlockingProbability(rt, f.Ports(), trials, seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, MultipathRow{Router: rt.Name(), BlockFraction: frac, MeanMaxLoad: load})
	}
	return res, nil
}

// Render writes the multipath table.
func (t *MultipathResult) Render(w io.Writer) {
	fmt.Fprintf(w, "ftree(%d+%d,%d), %d random permutations\n", t.N, t.M, t.R, t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "routing\tP(contention)\tmean max link load")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", r.Router, r.BlockFraction, r.MeanMaxLoad)
	}
	tw.Flush()
}

// ThreeLevelResult is experiment E8.
type ThreeLevelResult struct {
	N           int
	Design      cost.Design
	Nonblocking bool
	PaperCount  int // the paper's printed switch count 2n⁴+3n³+n²
}

// MultiLevelRow is one depth of the generalized E8 experiment.
type MultiLevelRow struct {
	Levels      int
	Design      cost.Design
	Nonblocking bool
}

// MultiLevelResult extends E8 to arbitrary recursion depth.
type MultiLevelResult struct {
	N    int
	Rows []MultiLevelRow
}

// MultiLevel builds the canonical L-level construction for each depth and
// verifies it exactly (Lemma 1 over all SD pairs) — the induction the
// Discussion sketches, executed.
func MultiLevel(n int, depths []int) (*MultiLevelResult, error) {
	res := &MultiLevelResult{N: n}
	for _, l := range depths {
		m := topology.NewMultiFtree(n, l)
		if err := m.Validate(); err != nil {
			return nil, err
		}
		rt := routing.NewMultiLevelPaper(m)
		l1, err := analysis.CheckLemma1AllPairs(rt, m.Ports())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, MultiLevelRow{
			Levels:      l,
			Design:      cost.MultiLevelNonblocking(n, l),
			Nonblocking: l1.Nonblocking,
		})
	}
	return res, nil
}

// Render writes the multi-level table.
func (t *MultiLevelResult) Render(w io.Writer) {
	fmt.Fprintf(w, "canonical L-level recursive nonblocking networks, n=%d, %d-port switches\n", t.N, t.N+t.N*t.N)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "levels\tports\tswitches\tswitches/port\tnonblocking (exact)")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f\t%v\n", r.Levels, r.Design.Ports, r.Design.Switches, r.Design.CostPerPort(), r.Nonblocking)
	}
	tw.Flush()
}

// ThreeLevel verifies the recursive three-level construction (the L = 3
// canonical network) and reports its cost.
func ThreeLevel(n int) (*ThreeLevelResult, error) {
	ml, err := MultiLevel(n, []int{3})
	if err != nil {
		return nil, err
	}
	return ml.ThreeLevel(), nil
}

// ThreeLevel is the three-level summary of t's depth-3 row, so a run that
// verifies several depths builds the L = 3 network once; nil when t has
// no such row.
func (t *MultiLevelResult) ThreeLevel() *ThreeLevelResult {
	n := t.N
	for _, row := range t.Rows {
		if row.Levels == 3 {
			return &ThreeLevelResult{
				N:           n,
				Design:      cost.ThreeLevelNonblocking(n),
				Nonblocking: row.Nonblocking,
				PaperCount:  2*n*n*n*n + 3*n*n*n + n*n,
			}
		}
	}
	return nil
}

// Render writes the three-level summary.
func (t *ThreeLevelResult) Render(w io.Writer) {
	fmt.Fprintf(w, "3-level nonblocking ftree, n=%d: %d switches (%d-port), %d ports, nonblocking=%v\n",
		t.N, t.Design.Switches, t.Design.SwitchPorts, t.Design.Ports, t.Nonblocking)
	fmt.Fprintf(w, "note: paper prints 2n⁴+3n³+n² = %d switches; the construction uses 2n⁴+2n³+n² = %d\n",
		t.PaperCount, t.Design.Switches)
}

// BenesRow is one m value of experiment E9.
type BenesRow struct {
	M int
	// GlobalOK reports whether centralized edge-coloring routing handled
	// every tested permutation.
	GlobalOK bool
	// GreedyBlockFraction is the blocking fraction of the distributed
	// greedy-local router at the same m.
	GreedyBlockFraction float64
}

// BenesResult is experiment E9.
type BenesResult struct {
	N, R, Trials int
	Rows         []BenesRow
}

// Benes contrasts centralized rearrangeable routing (m = n suffices,
// m = n−1 fails) with a distributed local heuristic at the same m, over
// random full permutations.
func Benes(n, r, trials int, seed int64) (*BenesResult, error) {
	res := &BenesResult{N: n, R: r, Trials: trials}
	c := analysis.NewChecker(nil)
	for _, m := range []int{n - 1, n, 2*n - 1} {
		if m < 1 {
			continue
		}
		f := topology.NewFoldedClos(n, m, r)
		global := routing.NewGlobalRearrangeable(f)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		for i := 0; i < trials; i++ {
			p := permutation.Random(rng, f.Ports())
			a, err := global.Route(p)
			if err != nil {
				ok = false
				break
			}
			c.Analyze(a)
			if c.HasContention() {
				ok = false
				break
			}
		}
		frac, _, err := analysis.BlockingProbability(routing.NewGreedyLocal(f), f.Ports(), trials, seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BenesRow{M: m, GlobalOK: ok, GreedyBlockFraction: frac})
	}
	return res, nil
}

// Render writes the Benes comparison.
func (t *BenesResult) Render(w io.Writer) {
	fmt.Fprintf(w, "ftree(%d+m,%d), %d random permutations\n", t.N, t.R, t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "m\tcentralized edge-coloring OK\tdistributed greedy P(contention)")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%v\t%.2f\n", r.M, r.GlobalOK, r.GreedyBlockFraction)
	}
	tw.Flush()
}

// ScalingResult is the Discussion's multi-level cost comparison.
type ScalingResult struct {
	Rows []cost.ScalingRow
}

// Scaling tabulates 2- vs 3-level nonblocking and rearrangeable designs.
func Scaling(ns []int) (*ScalingResult, error) {
	rows, err := cost.ScalingTable(ns)
	if err != nil {
		return nil, err
	}
	return &ScalingResult{Rows: rows}, nil
}

// Render writes the scaling table.
func (t *ScalingResult) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "N\tn\tnb 2-level sw/ports\tnb 3-level sw/ports\tFT(N,2) sw/ports\tFT(N,3) sw/ports\treplace-bottom sw/ports")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d/%d\t%d/%d\t%d/%d\t%d/%d\t%d/%d\n",
			r.N, r.HostsPerSwitch,
			r.Nonblocking2L.Switches, r.Nonblocking2L.Ports,
			r.Nonblocking3L.Switches, r.Nonblocking3L.Ports,
			r.Rearrangeable2L.Switches, r.Rearrangeable2L.Ports,
			r.Rearrangeable3L.Switches, r.Rearrangeable3L.Ports,
			r.ReplaceBottomVariant.Switches, r.ReplaceBottomVariant.Ports)
	}
	tw.Flush()
}
