package fclos_test

import (
	"math/rand"
	"testing"

	fclos "repro"
)

// TestIntegrationDesignToDeployment walks the full downstream-user
// pipeline: plan a nonblocking interconnect for a switch radix, build it,
// verify it exactly, route and simulate application workloads, inject
// failures, and confirm the degraded network still performs.
func TestIntegrationDesignToDeployment(t *testing.T) {
	// 1. Feasibility: what can 20-port switches buy?
	proposals, err := fclos.Plan(20)
	if err != nil {
		t.Fatal(err)
	}
	var det fclos.Proposal
	for _, p := range proposals {
		if p.Class == fclos.Deterministic {
			det = p
		}
	}
	if det.Ports == 0 {
		t.Fatal("no deterministic proposal")
	}

	// 2. Build and verify the planned system exactly.
	sys, err := fclos.NewDeterministicSystem(det.N, det.R)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Verify(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Nonblocking {
		t.Fatalf("planned system not nonblocking: %+v", rep)
	}

	// 3. Application workload at crossbar speed.
	cfg := fclos.SimConfig{PacketFlits: 2, PacketsPerPair: 4}
	w, err := fclos.RandomPhases(sys.Ports(), 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := sys.Router.(fclos.PairRouter)
	if !ok {
		t.Fatal("deterministic system should expose a PairRouter")
	}
	run, err := fclos.RunWorkload(sys.F.Net, pr, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fclos.RunWorkloadCrossbar(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := run.Slowdown(ref); s > 1.6 {
		t.Fatalf("workload slowdown %.2f", s)
	}
	if run.ContendedPhases() != 0 {
		t.Fatal("nonblocking system contended")
	}

	// 4. Harden with spares and fail two top switches.
	f := fclos.NewFoldedClos(det.N, det.N*det.N+2, det.R)
	failed, err := fclos.FailureSet{Tops: []int{1, 5}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	spared, err := fclos.NewSparedDeterministicView(f, failed)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := fclos.CheckLemma1AllPairs(spared, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !l1.Nonblocking {
		t.Fatal("spared system not nonblocking under failures")
	}

	// 5. Adaptive alternative on the same radix budget: verify sweeps and
	// measure its top-switch demand on a random permutation.
	ad, err := fclos.NewAdaptiveSystem(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p := fclos.RandomPermutation(rng, ad.Ports())
	a, contention, err := ad.RoutePattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if contention.HasContention() {
		t.Fatal("adaptive system contended")
	}
	if a.TopSwitchesUsed == 0 || a.TopSwitchesUsed > ad.F.M {
		t.Fatalf("top switch accounting wrong: %d of %d", a.TopSwitchesUsed, ad.F.M)
	}
}

// TestIntegrationBaselinesBehaveAsPaperPredicts cross-checks the paper's
// qualitative hierarchy end to end on one configuration: crossbar =
// nonblocking ftree < adaptive budget < deterministic budget < FT(N,2)
// with static routing.
func TestIntegrationBaselinesBehaveAsPaperPredicts(t *testing.T) {
	n := 2
	f := fclos.NewNonblockingFtree(n, n+n*n)
	paper, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fclos.SimConfig{PacketFlits: 2, PacketsPerPair: 6}
	sumNB, err := fclos.CompareToCrossbar(f.Net, paper, f.Ports(), 5, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft := fclos.NewMPortNTree(n+n*n, 2)
	sumFT, err := fclos.CompareToCrossbar(ft.Net, fclos.NewMNTDestMod(ft), ft.Hosts(), 5, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sumNB.MeanSlowdown >= sumFT.MeanSlowdown {
		t.Fatalf("nonblocking (%.2f) should beat static fat-tree (%.2f)", sumNB.MeanSlowdown, sumFT.MeanSlowdown)
	}
	// Condition hierarchy: rearrangeable < adaptive budget < deterministic
	// for large n (asymptotic regime).
	bigN := 32
	if !(fclos.ClosRearrangeableM(bigN) < fclos.AdaptiveSimpleM(bigN, 2) &&
		fclos.AdaptiveSimpleM(bigN, 2) < fclos.DeterministicMinM(bigN)) {
		t.Fatal("condition hierarchy violated at n=32")
	}
}
