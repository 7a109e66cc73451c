// Benchmarks regenerating every table and figure of the paper (experiment
// IDs from DESIGN.md §5 / EXPERIMENTS.md), plus ablations of the design
// choices DESIGN.md calls out. Each benchmark runs the full experiment so
// `go test -bench=.` both times the harness and re-validates the results.
package fclos_test

import (
	"context"
	"io"
	"math/rand"
	"testing"

	fclos "repro"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// BenchmarkTableI regenerates Table I (experiment T1).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TableI()
		if res.Rows[0].Nonblocking.Ports != 80 {
			b.Fatal("Table I wrong")
		}
		res.Render(io.Discard)
	}
}

// BenchmarkTheorem3Verify is experiment E1 / Fig. 3: the exact Lemma-1
// all-pairs verification of the Theorem-3 routing on the Table-I network
// ftree(4+16, 20), plus tightness at m = n²−1.
func BenchmarkTheorem3Verify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Theorem3([][2]int{{4, 20}})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Rows[0].Nonblocking || !res.Rows[0].TightBlocks {
			b.Fatal("Theorem 3 verification failed")
		}
	}
}

// BenchmarkLemma2Search is experiment E2 / Fig. 2: the exact canonical-
// mode search for the maximum SD pairs through one top-level switch.
func BenchmarkLemma2Search(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Lemma2([]int{1, 2, 3}, []int{3, 4, 5})
		for _, row := range res.Rows {
			if !row.WitnessOK {
				b.Fatal("witness failed")
			}
		}
	}
}

// BenchmarkLemma2NaiveAblation compares the branch-and-bound over raw pair
// subsets against the canonical-mode search on the largest instance the
// naive method can handle — the ablation justifying the mode search.
func BenchmarkLemma2NaiveAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if fclos.MaxRootPairsNaive(2, 3) != fclos.MaxRootPairsModes(2, 3) {
			b.Fatal("searches disagree")
		}
	}
}

// BenchmarkTheorem1 is experiment E3: the small-top-switch port-bound
// table.
func BenchmarkTheorem1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Theorem1([]int{2, 3, 4, 5, 6})
		for _, row := range res.Rows {
			if row.Ports > row.Bound {
				b.Fatal("Theorem 1 violated")
			}
		}
	}
}

// BenchmarkAdaptiveRoute is Fig. 4: one NONBLOCKINGADAPTIVE routing pass
// over a random full permutation of ftree(8+48, 64).
func BenchmarkAdaptiveRoute(b *testing.B) {
	f := fclos.NewFoldedClos(8, 48, 64)
	ad, err := fclos.NewNonblockingAdaptive(f)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	perms := make([]*fclos.Permutation, 8)
	for i := range perms {
		perms[i] = fclos.RandomPermutation(rng, f.Ports())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := ad.Route(perms[i%len(perms)])
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Pairs) == 0 {
			b.Fatal("no pairs routed")
		}
	}
}

// BenchmarkAdaptiveSweep is experiment E4: the top-switch-demand scaling
// measurement for NONBLOCKINGADAPTIVE.
func BenchmarkAdaptiveSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Adaptive([]int{4, 6, 8}, 3, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.MeasuredRandom > row.SimpleBound {
				b.Fatal("bound violated")
			}
		}
	}
}

// BenchmarkAdaptiveFirstFitAblation measures the greedy largest-subset
// step (Fig. 4 line 7) against first-fit partition selection.
func BenchmarkAdaptiveFirstFitAblation(b *testing.B) {
	n, r := 8, 64
	f := fclos.NewFoldedClos(n, 1, r)
	greedy, err := fclos.NewNonblockingAdaptive(f)
	if err != nil {
		b.Fatal(err)
	}
	firstfit := &fclos.NonblockingAdaptive{F: f, C: greedy.C, FirstFit: true}
	adv := fclos.GreedyLowSpread(n, r, greedy.C)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := greedy.RequiredM(adv)
		if err != nil {
			b.Fatal(err)
		}
		ff, err := firstfit.RequiredM(adv)
		if err != nil {
			b.Fatal(err)
		}
		if ff < g {
			b.Fatal("first-fit beat greedy")
		}
	}
}

// BenchmarkVerifyLemma1AllPairs times the exact nonblocking decision
// procedure on the largest Table-I network, ftree(6+36, 42).
func BenchmarkVerifyLemma1AllPairs(b *testing.B) {
	f := fclos.NewNonblockingFtree(6, 42)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fclos.CheckLemma1AllPairs(r, f.Ports())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Nonblocking {
			b.Fatal("should be nonblocking")
		}
	}
}

// BenchmarkSimThroughput is experiment E6: the simulated permutation-
// throughput comparison against the crossbar.
func BenchmarkSimThroughput(b *testing.B) {
	cfg := sim.Config{PacketFlits: 4, PacketsPerPair: 8}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Throughput(2, 3, int64(i), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkSimArbiterAblation compares round-robin and oldest-first link
// arbitration on a contended workload — the DESIGN.md §6 arbitration
// ablation (contention-freedom identical; timing differs).
func BenchmarkSimArbiterAblation(b *testing.B) {
	f := fclos.NewFoldedClos(3, 9, 12)
	r := fclos.NewDestMod(f)
	p := fclos.LocalRotatePerm(3, 12)
	for _, arb := range []struct {
		name string
		a    sim.Arbiter
	}{{"round-robin", sim.RoundRobin}, {"oldest-first", sim.OldestFirst}} {
		b.Run(arb.name, func(b *testing.B) {
			cfg := sim.Config{PacketFlits: 4, PacketsPerPair: 8, Arbiter: arb.a}
			for i := 0; i < b.N; i++ {
				_, res, err := fclos.SimulatePermutation(f.Net, r, p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Delivered != res.TotalPackets {
					b.Fatal("packets lost")
				}
			}
		})
	}
}

// BenchmarkMultipath is experiment E7: blocking probability of oblivious
// spraying widths (§IV.B).
func BenchmarkMultipath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Multipath(2, 8, 20, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].BlockFraction != 0 {
			b.Fatal("single-path should not block")
		}
	}
}

// BenchmarkRecursive is experiment E8: building and exactly verifying the
// three-level recursive nonblocking construction.
func BenchmarkRecursive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ThreeLevel(2)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Nonblocking {
			b.Fatal("three-level not nonblocking")
		}
	}
}

// BenchmarkMultiLevel extends E8 to the generic construction, building and
// exactly verifying depths 2–4.
func BenchmarkMultiLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiLevel(2, []int{2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if !row.Nonblocking {
				b.Fatal("multi-level not nonblocking")
			}
		}
	}
}

// BenchmarkEdgeColor is experiment E9: bipartite edge coloring as the
// centralized rearrangeable routing engine (Benes m = n).
func BenchmarkEdgeColor(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, r := 16, 64
	edges := make([][2]int, 0, n*r)
	// A full permutation's switch-level demand multigraph: degree n.
	perm := rng.Perm(n * r)
	for s, d := range perm {
		edges = append(edges, [2]int{s / n, d / n})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colors, err := fclos.EdgeColorBipartite(r, r, edges)
		if err != nil {
			b.Fatal(err)
		}
		if len(colors) != len(edges) {
			b.Fatal("coloring incomplete")
		}
	}
}

// BenchmarkOnlineClos is experiment E10: the classic online conditions
// (strict-sense adversary + random churn) on Clos(2, m, 4).
func BenchmarkOnlineClos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Online(2, 4, 10, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.M == 3 && (row.AdversaryBlocked || row.RandomBlockFraction > 0) {
				b.Fatal("strict-sense condition violated")
			}
		}
	}
}

// BenchmarkFaultTolerance is experiment E11: degraded-mode routing with
// failed top-level switches.
func BenchmarkFaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// n = 4 keeps the per-iteration Lemma-1 sweeps cheap while the
		// adaptive demand (12) still sits below n² = 16.
		res, err := experiments.Fault(4, 16, 2, 2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if !row.AdaptiveOK {
				b.Fatal("adaptive rerouting failed")
			}
		}
	}
}

// BenchmarkLoadSweep is experiment E12: open-loop latency/throughput
// curves for nonblocking vs static routing.
func BenchmarkLoadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LoadSweepExperiment(2, 5, []float64{0.5, 1.0}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkWorstCaseSearch times the adversarial hill-climbing contention
// search against dest-mod routing.
func BenchmarkWorstCaseSearch(b *testing.B) {
	f := fclos.NewNonblockingFtree(3, 10)
	s := &fclos.WorstCaseSearch{
		Router: fclos.NewDestMod(f),
		Hosts:  f.Ports(), Restarts: 2, Steps: 50, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Permutation == nil {
			b.Fatal("no result")
		}
	}
}

// BenchmarkOpenLoop times one full-load open-loop run on the nonblocking
// network — the dense-event-core hot path (pooled packets, two-bucket
// time wheel, slice-indexed link state).
func BenchmarkOpenLoop(b *testing.B) {
	f := fclos.NewNonblockingFtree(3, 12)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	p := fclos.SwitchShiftPerm(3, 12, 1)
	dst := make([]int, p.N())
	for i := 0; i < p.N(); i++ {
		dst[i] = p.Dst(i)
	}
	pairs := fclos.PermPairs(dst)
	cfg := fclos.OpenLoopConfig{
		PacketFlits: 4, Rate: 1.0, WarmupPackets: 10, MeasuredPackets: 50,
		Seed: 1, Arbiter: fclos.ArbiterRoundRobin,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fclos.OpenLoop(f.Net, pairs, fclos.PairPathsFunc(r), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.AcceptedLoad < 0.9 {
			b.Fatalf("nonblocking accepted %.2f", res.AcceptedLoad)
		}
	}
}

// BenchmarkRunTrials times closed-loop random-permutation trials inline
// and on a worker pool; the output is the same for every worker count.
func BenchmarkRunTrials(b *testing.B) {
	f := fclos.NewNonblockingFtree(3, 12)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fclos.SimConfig{PacketFlits: 4, PacketsPerPair: 8, Arbiter: fclos.ArbiterRoundRobin}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := fclos.RunTrials(f.Net, r, f.Ports(), 4, bc.workers, 1, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res.Delivered != res.TotalPackets {
						b.Fatal("lost packets")
					}
				}
			}
		})
	}
}

// BenchmarkExhaustiveSweepParallelAblation compares sequential and
// parallel exhaustive verification of all 8! permutations of
// ftree(2+4, 4) — the worker-pool ablation.
func BenchmarkExhaustiveSweepParallelAblation(b *testing.B) {
	f := fclos.NewNonblockingFtree(2, 4)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, _ := fclos.Sweep(context.Background(), r, f.Ports(), fclos.SweepSpec{})
			if !res.Nonblocking() {
				b.Fatal("blocked")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, _ := fclos.Sweep(context.Background(), r, f.Ports(), fclos.SweepSpec{Parallel: true})
			if !res.Nonblocking() {
				b.Fatal("blocked")
			}
		}
	})
}

// BenchmarkBenesLooping times the classic looping algorithm routing a
// random permutation on B(6) (64 terminals, 11 stages) — the §II
// rearrangeable baseline.
func BenchmarkBenesLooping(b *testing.B) {
	bn := fclos.NewBenes(6)
	r := fclos.NewBenesLooping(bn)
	rng := rand.New(rand.NewSource(2))
	perms := make([]*fclos.Permutation, 8)
	for i := range perms {
		perms[i] = fclos.RandomPermutation(rng, bn.N)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := r.Route(perms[i%len(perms)])
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Pairs) != bn.N {
			b.Fatal("pairs missing")
		}
	}
}

// BenchmarkCollectives is experiment E13: bulk-synchronous collective
// completion on the nonblocking network vs static routing.
func BenchmarkCollectives(b *testing.B) {
	cfg := sim.Config{PacketFlits: 2, PacketsPerPair: 4}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Collectives(2, int64(i), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Rows[0].ContendedPhases != 0 {
				b.Fatal("nonblocking contended")
			}
		}
	}
}

// BenchmarkRandomModel is experiment E14: the birthday model of randomized
// routing validated by Monte Carlo.
func BenchmarkRandomModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RandomModel(2, 5, 60, []int{8, 32}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkOversub is experiment E15: the oversubscription frontier.
func BenchmarkOversub(b *testing.B) {
	cfg := sim.Config{PacketFlits: 2, PacketsPerPair: 4}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Oversub(2, 6, 20, int64(i), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkInNetworkAdaptive is experiment E16: per-packet adaptive
// routing in the simulator vs pattern-level schemes.
func BenchmarkInNetworkAdaptive(b *testing.B) {
	cfg := sim.Config{PacketFlits: 2, PacketsPerPair: 6}
	for i := 0; i < b.N; i++ {
		res, err := experiments.InNetworkAdaptive(2, 5, 3, int64(i), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkWorstLoad is experiment E17: exact worst-case link load via
// per-link maximum matching.
func BenchmarkWorstLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WorstLoad(2, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].MaxLoad != 1 {
			b.Fatal("nonblocking load wrong")
		}
	}
}

// BenchmarkSweepRandom times the randomized verification sweep on the
// Table-I network ftree(4+16, 20) — the congestion-accounting hot path the
// flat-array Checker optimizes.
func BenchmarkSweepRandom(b *testing.B) {
	f := fclos.NewFoldedClos(4, 16, 20)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := fclos.SweepRandomCtx(context.Background(), r, f.Ports(), 10, 1)
		if !res.Nonblocking() {
			b.Fatal("paper routing blocked")
		}
	}
}

// BenchmarkSweepRandomTableI500 is BenchmarkSweepRandom at the service's
// default 500 trials, which the sweep scores on a route table.
func BenchmarkSweepRandomTableI500(b *testing.B) {
	f := fclos.NewFoldedClos(4, 16, 20)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := fclos.SweepRandomCtx(context.Background(), r, f.Ports(), 500, 1)
		if !res.Nonblocking() {
			b.Fatal("paper routing blocked")
		}
	}
}

// BenchmarkTopologyBuildTableI times building the Table-I network
// ftree(4+16, 20), the fixed cost of every service request on it.
func BenchmarkTopologyBuildTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := fclos.NewFoldedClos(4, 16, 20); f.Ports() != 80 {
			b.Fatal("ftree(4+16,20) has the wrong host count")
		}
	}
}

// BenchmarkSweepExhaustive times the exhaustive 8!-permutation sweep on
// ftree(4+16, 2) (n = 4, m = 16, 8 hosts).
func BenchmarkSweepExhaustive(b *testing.B) {
	f := fclos.NewFoldedClos(4, 16, 2)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _ := fclos.Sweep(context.Background(), r, f.Ports(), fclos.SweepSpec{})
		if !res.Nonblocking() {
			b.Fatal("paper routing blocked")
		}
	}
}

// BenchmarkSweepExhaustiveDelta9 times the 9!-permutation delta sweep on
// ftree(3+9, 3) — a size the per-pattern engine makes painful (362880
// patterns) and the incremental engine covers by default.
func BenchmarkSweepExhaustiveDelta9(b *testing.B) {
	f := fclos.NewFoldedClos(3, 9, 3)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _ := fclos.Sweep(context.Background(), r, f.Ports(), fclos.SweepSpec{})
		if !res.Nonblocking() {
			b.Fatal("paper routing blocked")
		}
	}
}

// BenchmarkBuildFoldedClos times topology construction at Table-I scale.
func BenchmarkBuildFoldedClos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := fclos.NewNonblockingFtree(6, 42)
		if f.Ports() != 252 {
			b.Fatal("wrong size")
		}
	}
}

// BenchmarkRoutePaperDeterministic times single-pair path construction.
func BenchmarkRoutePaperDeterministic(b *testing.B) {
	f := fclos.NewNonblockingFtree(6, 42)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % f.Ports()
		d := (i*7 + 13) % f.Ports()
		if s == d {
			d = (d + 1) % f.Ports()
		}
		if _, err := r.PathFor(s, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingTable regenerates the Discussion's multi-level cost
// comparison.
func BenchmarkScalingTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := fclos.ScalingTable([]int{2, 3, 4, 5, 6})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("rows missing")
		}
	}
}
