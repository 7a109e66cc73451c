package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file holds the extension experiments beyond the paper's own tables:
// E10 exercises the classic online (telephone) conditions the paper builds
// on, E11 the fault-tolerance contrast between the routing classes, and
// E12 the open-loop load/latency curves.

// OnlineRow is one (m, policy) cell of experiment E10.
type OnlineRow struct {
	M      int
	Policy routing.ClosPolicy
	// AdversaryBlocked reports whether the classic setup/teardown
	// adversary blocked.
	AdversaryBlocked bool
	// RandomBlockFraction is the fraction of random churn runs that hit
	// a blocked setup.
	RandomBlockFraction float64
}

// OnlineResult is experiment E10.
type OnlineResult struct {
	N, R, Trials int
	Rows         []OnlineRow
}

// Online exercises the classic online circuit-switching conditions on
// Clos(n, m, r): m = 2n−1 never blocks (strict-sense, Clos [2]); m = 2n−2
// blocks under the adversarial sequence and occasionally under random
// churn; m = n blocks frequently online even though it is rearrangeably
// sufficient offline.
func Online(n, r, trials int, seed int64) (*OnlineResult, error) {
	res := &OnlineResult{N: n, R: r, Trials: trials}
	seen := map[int]bool{}
	for _, m := range []int{n, 2*n - 2, 2*n - 1} {
		if m < 1 || seen[m] {
			continue
		}
		seen[m] = true
		c := topology.NewClos(n, m, r)
		for _, pol := range []routing.ClosPolicy{routing.FirstFit, routing.Packing} {
			row := OnlineRow{M: m, Policy: pol}
			if n == 2 && m >= 2 {
				idx, err := routing.Replay(c, pol, routing.ClosAdversary())
				if err != nil {
					return nil, err
				}
				row.AdversaryBlocked = idx >= 0
			}
			blocked := 0
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < trials; trial++ {
				if churnBlocks(c, pol, rng, 200) {
					blocked++
				}
			}
			row.RandomBlockFraction = float64(blocked) / float64(trials)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// churnBlocks runs a random setup/teardown sequence and reports whether
// any setup with idle terminals blocked.
func churnBlocks(c *topology.Clos, pol routing.ClosPolicy, rng *rand.Rand, steps int) bool {
	o := routing.NewClosOnline(c, pol)
	dstOf := make(map[int]int)
	dstBusy := make(map[int]bool)
	for step := 0; step < steps; step++ {
		s := rng.Intn(c.Ports())
		if d, busy := dstOf[s]; busy {
			if err := o.Disconnect(s); err != nil {
				panic(err) // malformed bookkeeping is a bug, not blocking
			}
			delete(dstOf, s)
			delete(dstBusy, d)
			continue
		}
		d := rng.Intn(c.Ports())
		if dstBusy[d] {
			continue
		}
		if _, err := o.Connect(s, d); err != nil {
			return true
		}
		dstOf[s] = d
		dstBusy[d] = true
	}
	return false
}

// Render writes the online-conditions table.
func (t *OnlineResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Clos(%d,m,%d) online circuit switching, %d random churn runs\n", t.N, t.R, t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "m\tpolicy\tadversary blocks\trandom churn P(block)")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%s\t%v\t%.2f\n", r.M, r.Policy, r.AdversaryBlocked, r.RandomBlockFraction)
	}
	tw.Flush()
}

// FaultRow is one failure count of experiment E11.
type FaultRow struct {
	Failures int
	// AdaptiveOK: NONBLOCKINGADAPTIVE over the healthy tops stays clean.
	AdaptiveOK bool
	// SparedOK: the Theorem-3 scheme with dedicated spares stays clean
	// (false once failures exceed spares).
	SparedOK bool
	// NaiveBlocked: the naive class-folding remap provably blocks.
	NaiveBlocked bool
}

// FaultResult is experiment E11.
type FaultResult struct {
	N, R, M, Spares, Trials int
	Rows                    []FaultRow
}

// Fault measures degraded-mode behaviour with k failed top switches on
// ftree(n + n² + s, r): the adaptive router reroutes around failures as
// long as enough switches survive — its configuration demand is below n²
// for large n, so it tolerates *more* failures than it was given spares —
// while the deterministic scheme survives exactly its provisioned spares,
// and naive class folding blocks at the first failure. Pick n with
// (c+1)·n·⌈n/(c+2)⌉ comfortably below n² (n ≥ 8 with r = n²) so the
// asymmetry is visible.
func Fault(n, r, spares, trials int, seed int64) (*FaultResult, error) {
	if n < 2 || r < 1 || trials < 1 || spares < 0 {
		return nil, fmt.Errorf("experiments: Fault needs n >= 2, r >= 1, trials >= 1, spares >= 0 (got n=%d r=%d trials=%d spares=%d)",
			n, r, trials, spares)
	}
	// The sampler draws k distinct failed switches from the n² class
	// switches for k up to spares+1; with spares+1 > n² the draw loop
	// could never complete (it used to spin forever).
	if spares+1 > n*n {
		return nil, fmt.Errorf("experiments: Fault samples up to spares+1 = %d failed class switches but ftree(%d+%d,%d) has only n² = %d",
			spares+1, n, n*n+spares, r, n*n)
	}
	m := n*n + spares
	f := topology.NewFoldedClos(n, m, r)
	res := &FaultResult{N: n, R: r, M: m, Spares: spares, Trials: trials}
	rng := rand.New(rand.NewSource(seed))
	c := analysis.NewChecker(f.Net)
	for k := 0; k <= spares+1; k++ {
		row := FaultRow{Failures: k}
		var tops []int
		for len(tops) < k {
			// Fail distinct class switches: the hard case.
			if t := rng.Intn(n * n); !slices.Contains(tops, t) {
				tops = append(tops, t)
			}
		}
		failed, err := topology.FailureSet{Tops: tops}.View(f)
		if err != nil {
			return nil, err
		}
		ad, err := routing.NewAvoidingAdaptive(f, failed)
		if err != nil {
			return nil, err
		}
		// Adaptive: random patterns must stay contention-free when
		// enough healthy switches remain.
		row.AdaptiveOK = true
		for trial := 0; trial < trials; trial++ {
			p := permutation.Random(rng, f.Ports())
			a, err := ad.Route(p)
			if err != nil {
				row.AdaptiveOK = false
				break
			}
			c.Analyze(a)
			if c.HasContention() {
				row.AdaptiveOK = false
				break
			}
		}
		// Spared deterministic: exact Lemma-1 verdict.
		if sp, err := routing.NewSparedDeterministicView(f, failed); err == nil {
			l1, err := analysis.CheckLemma1AllPairs(sp, f.Ports())
			if err != nil {
				return nil, err
			}
			row.SparedOK = l1.Nonblocking
		}
		// Naive folding: exact Lemma-1 verdict (blocks whenever k > 0).
		// When every class switch failed the remap cannot even be
		// built — worse than blocked.
		if k > 0 {
			if nr, err := routing.NewNaiveRemapView(f, failed); err != nil {
				row.NaiveBlocked = true
			} else {
				l1, err := analysis.CheckLemma1AllPairs(nr, f.Ports())
				if err != nil {
					return nil, err
				}
				row.NaiveBlocked = !l1.Nonblocking
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the fault-tolerance table.
func (t *FaultResult) Render(w io.Writer) {
	fmt.Fprintf(w, "ftree(%d+%d,%d) with %d spare top switches, %d random patterns per cell\n",
		t.N, t.M, t.R, t.Spares, t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "failed\tadaptive reroutes\tspared deterministic\tnaive folding blocks")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%v\n", r.Failures, r.AdaptiveOK, r.SparedOK, r.NaiveBlocked)
	}
	tw.Flush()
}

// LoadSweepResult is experiment E12.
type LoadSweepResult struct {
	Network string
	Rows    []loadSweepRow
}

type loadSweepRow struct {
	Router string
	Points []sim.LoadSweepPoint
}

// LoadSweepExperiment produces latency/accepted-throughput curves over
// offered load for the nonblocking routing versus destination-mod static
// routing on the same ftree(n+n², r) — the open-loop counterpart of E6.
// The pattern is chosen adversarially *against dest-mod* (hill-climbing
// contention search), so the sweep contrasts a permutation that saturates
// the static routing while the Theorem-3 routing, by construction, carries
// the very same permutation at full load.
func LoadSweepExperiment(n, r int, rates []float64, seed int64) (*LoadSweepResult, error) {
	f := topology.NewFoldedClos(n, n*n, r)
	search := &analysis.WorstCaseSearch{
		Router:   routing.NewDestMod(f),
		Hosts:    f.Ports(),
		Restarts: 3,
		Steps:    120,
		Seed:     seed,
	}
	worst, err := search.Run()
	if err != nil {
		return nil, err
	}
	p := worst.Permutation
	if worst.ContendedLinks == 0 {
		p = permutation.SwitchShift(n, r, 1) // fall back to a structured pattern
	}
	dst := make([]int, p.N())
	for i := 0; i < p.N(); i++ {
		dst[i] = p.Dst(i)
	}
	pairs := sim.PermPairs(dst)
	base := sim.OpenLoopConfig{
		PacketFlits:     4,
		WarmupPackets:   20,
		MeasuredPackets: 100,
		Seed:            seed,
		Arbiter:         sim.RoundRobin,
	}
	res := &LoadSweepResult{Network: f.Net.Name}
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		return nil, err
	}
	for _, rt := range []routing.PairRouter{paper, routing.NewDestMod(f)} {
		points, err := sim.LoadSweepParallel(f.Net, pairs, sim.PairPathsFunc(rt), rates, base)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, loadSweepRow{Router: rt.Name(), Points: points})
	}
	return res, nil
}

// Render writes the load-sweep curves.
func (t *LoadSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s, adversarial permutation (vs dest-mod), open-loop injection\n", t.Network)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "routing\toffered\taccepted\tmean latency\tp99")
	for _, row := range t.Rows {
		for _, pt := range row.Points {
			fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.1f\t%d\n",
				row.Router, pt.OfferedLoad, pt.AcceptedLoad, pt.MeanLatency, pt.P99Latency)
		}
	}
	tw.Flush()
}

// WorstLoadRow is one routing scheme of experiment E17.
type WorstLoadRow struct {
	Router string
	// MaxLoad is the exact worst-case permutation-realizable link load.
	MaxLoad int
	// WitnessLoad re-verifies the constructed worst permutation.
	WitnessLoad int
}

// WorstLoadResult is experiment E17: exact worst-case link load per
// deterministic routing scheme, by per-link maximum matching ([17]-style
// oblivious performance analysis, solved exactly).
type WorstLoadResult struct {
	N, M, R int
	Rows    []WorstLoadRow
}

// WorstLoad computes the exact worst-case link load of every single-path
// deterministic scheme on ftree(n+n², r) and re-verifies each with a
// constructed witness permutation.
func WorstLoad(n, r int, seed int64) (*WorstLoadResult, error) {
	f := topology.NewFoldedClos(n, n*n, r)
	res := &WorstLoadResult{N: n, M: n * n, R: r}
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		return nil, err
	}
	for _, rt := range []routing.PairRouter{
		paper,
		routing.NewDestMod(f),
		routing.NewSourceMod(f),
		routing.NewDestSwitchMod(f),
		routing.NewRandomFixed(f, seed),
	} {
		wl, err := analysis.WorstCaseLinkLoad(rt, f.Ports())
		if err != nil {
			return nil, err
		}
		row := WorstLoadRow{Router: rt.Name(), MaxLoad: wl.MaxLoad}
		p, err := analysis.WorstCasePermutationFor(rt, f.Ports(), wl.Link)
		if err != nil {
			return nil, err
		}
		a, err := rt.Route(p)
		if err != nil {
			return nil, err
		}
		row.WitnessLoad = analysis.Check(a).MaxLoad
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the worst-load table.
func (t *WorstLoadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "exact worst-case permutation link load on ftree(%d+%d,%d) (max bipartite matching per link)\n", t.N, t.M, t.R)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "routing\tworst-case load (exact)\twitness re-verified")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", r.Router, r.MaxLoad, r.WitnessLoad)
	}
	tw.Flush()
	fmt.Fprintln(w, "load 1 = nonblocking (Lemma 1); the witness column re-routes the constructed")
	fmt.Fprintln(w, "worst permutation and reports the observed load — always equal to the bound.")
}

// InNetworkRow is one scheme of experiment E16.
type InNetworkRow struct {
	Scheme       string
	MeanSlowdown float64
	MaxSlowdown  float64
}

// InNetworkResult is experiment E16: per-packet in-network adaptivity
// ([1], [9]) versus pattern-level routing on the same ftree(n+n², r).
type InNetworkResult struct {
	Hosts, Trials int
	Rows          []InNetworkRow
}

// InNetworkAdaptive compares, over random permutations against the
// crossbar reference: the Theorem-3 assignment (provably clean), dest-mod
// static routing, switch-local per-packet adaptivity, and oracle-informed
// per-packet adaptivity.
func InNetworkAdaptive(n, r, trials int, seed int64, cfg sim.Config) (*InNetworkResult, error) {
	f := topology.NewFoldedClos(n, n*n, r)
	hosts := f.Ports()
	res := &InNetworkResult{Hosts: hosts, Trials: trials}
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		return nil, err
	}

	type runner struct {
		name string
		run  func(p *permutation.Permutation) (*sim.Result, error)
	}
	runners := []runner{
		{paper.Name(), func(p *permutation.Permutation) (*sim.Result, error) {
			_, out, err := sim.RunPermutation(f.Net, paper, p, cfg)
			return out, err
		}},
		{"dest-mod", func(p *permutation.Permutation) (*sim.Result, error) {
			_, out, err := sim.RunPermutation(f.Net, routing.NewDestMod(f), p, cfg)
			return out, err
		}},
		{"adapt-local", func(p *permutation.Permutation) (*sim.Result, error) {
			return sim.RunFtreeAdaptive(f, p, cfg, sim.AdaptLocal)
		}},
		{"adapt-oracle", func(p *permutation.Permutation) (*sim.Result, error) {
			return sim.RunFtreeAdaptive(f, p, cfg, sim.AdaptOracle)
		}},
	}
	for _, rn := range runners {
		rng := rand.New(rand.NewSource(seed))
		row := InNetworkRow{Scheme: rn.name}
		for trial := 0; trial < trials; trial++ {
			p := permutation.Random(rng, hosts)
			out, err := rn.run(p)
			if err != nil {
				return nil, err
			}
			ref, err := sim.CrossbarReference(hosts, p, cfg)
			if err != nil {
				return nil, err
			}
			s := out.Slowdown(ref)
			row.MeanSlowdown += s
			if s > row.MaxSlowdown {
				row.MaxSlowdown = s
			}
		}
		if trials > 0 {
			row.MeanSlowdown /= float64(trials)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the in-network adaptivity comparison.
func (t *InNetworkResult) Render(w io.Writer) {
	fmt.Fprintf(w, "per-packet in-network adaptivity vs pattern-level routing, %d hosts, %d random permutations\n", t.Hosts, t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tmean slowdown\tmax slowdown")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", r.Scheme, r.MeanSlowdown, r.MaxSlowdown)
	}
	tw.Flush()
}

// RandomModelRow is one m value of experiment E14.
type RandomModelRow struct {
	M        int
	Model    float64
	Measured float64
}

// RandomModelResult is experiment E14: the analytic birthday model of
// randomized routing vs Monte Carlo measurement.
type RandomModelResult struct {
	N, R, Trials int
	Rows         []RandomModelRow
}

// RandomModel sweeps m and compares ModelRandomClearProb against measured
// clear probability — the Greenberg–Leiserson [6] randomized-routing
// regime: random permutations only become usually-clear once m ≫ r·n²,
// far beyond the deterministic guarantee m = n².
func RandomModel(n, r, trials int, ms []int, seed int64) (*RandomModelResult, error) {
	res := &RandomModelResult{N: n, R: r, Trials: trials}
	for _, m := range ms {
		meas, err := analysis.MeasureRandomClearProb(n, m, r, trials, seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, RandomModelRow{
			M:        m,
			Model:    analysis.ModelRandomClearProb(n, m, r),
			Measured: meas,
		})
	}
	return res, nil
}

// Render writes the model comparison.
func (t *RandomModelResult) Render(w io.Writer) {
	fmt.Fprintf(w, "randomized routing on ftree(%d+m,%d): P(random permutation clear), %d trials\n", t.N, t.R, t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "m\tbirthday model\tmeasured")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\n", r.M, r.Model, r.Measured)
	}
	tw.Flush()
	fmt.Fprintf(tw, "deterministic guarantee needs only m = n² = %d — with the *right* paths, not random ones\n", t.N*t.N)
	tw.Flush()
}

// WorstCaseResult is the adversarial-search experiment: how badly the
// baselines can be made to contend versus the provably clean schemes.
type WorstCaseResult struct {
	Hosts int
	Rows  []WorstCaseRow
}

// WorstCaseRow is one router's worst pattern found.
type WorstCaseRow struct {
	Router         string
	ContendedLinks int
	MaxLoad        int
}

// WorstCase runs hill-climbing contention maximization against each
// routing scheme on ftree(n+n², r).
func WorstCase(n, r, restarts, steps int, seed int64) (*WorstCaseResult, error) {
	f := topology.NewFoldedClos(n, n*n, r)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		return nil, err
	}
	res := &WorstCaseResult{Hosts: f.Ports()}
	for _, rt := range []routing.Router{paper, routing.NewDestMod(f), routing.NewSourceMod(f), routing.NewRandomFixed(f, seed)} {
		s := &analysis.WorstCaseSearch{Router: rt, Hosts: f.Ports(), Restarts: restarts, Steps: steps, Seed: seed}
		out, err := s.Run()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, WorstCaseRow{Router: rt.Name(), ContendedLinks: out.ContendedLinks, MaxLoad: out.MaxLoad})
	}
	return res, nil
}

// Render writes the worst-case table.
func (t *WorstCaseResult) Render(w io.Writer) {
	fmt.Fprintf(w, "adversarial hill climbing, %d hosts\n", t.Hosts)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "routing\tworst contended links\tworst max load")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", r.Router, r.ContendedLinks, r.MaxLoad)
	}
	tw.Flush()
}
