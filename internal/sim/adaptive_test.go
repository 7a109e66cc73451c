package sim

import (
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestAdaptiveSimDeliversEverything(t *testing.T) {
	f := topology.NewFoldedClos(3, 9, 6)
	p := permutation.LocalRotate(3, 6)
	cfg := Config{PacketFlits: 3, PacketsPerPair: 5, Arbiter: RoundRobin}
	for _, mode := range []AdaptMode{AdaptLocal, AdaptOracle} {
		res, err := RunFtreeAdaptive(f, p, cfg, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Delivered != res.TotalPackets || res.Aborted {
			t.Fatalf("%v: delivered %d/%d aborted=%v", mode, res.Delivered, res.TotalPackets, res.Aborted)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%v: makespan %d", mode, res.Makespan)
		}
	}
}

func TestAdaptiveSimDeterministic(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	p := permutation.SwitchShift(2, 5, 2)
	cfg := Config{PacketFlits: 2, PacketsPerPair: 6}
	r1, err := RunFtreeAdaptive(f, p, cfg, AdaptLocal)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFtreeAdaptive(f, p, cfg, AdaptLocal)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.SumLatency != r2.SumLatency {
		t.Fatal("adaptive sim not deterministic")
	}
}

func TestAdaptiveLocalAvoidsUplinkCollisions(t *testing.T) {
	// Hosts 0 and 1 share a bottom switch; dests 4 and 8 are ≡ 0 mod
	// m = 4, so dest-mod serializes both flows on one uplink. Local
	// adaptivity spreads them over two uplinks and must finish faster.
	f := topology.NewFoldedClos(2, 4, 5)
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 4}, {Src: 1, Dst: 8}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PacketFlits: 2, PacketsPerPair: 8}
	_, static, err := RunPermutation(f.Net, routing.NewDestMod(f), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunFtreeAdaptive(f, p, cfg, AdaptLocal)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Makespan >= static.Makespan {
		t.Fatalf("adapt-local (%d) should beat dest-mod (%d) on uplink collisions", adaptive.Makespan, static.Makespan)
	}
}

func TestAdaptiveOracleAtLeastAsGoodOnDownlinkCollisions(t *testing.T) {
	// Pairs from different switches into one destination switch: local
	// adaptivity cannot see the shared downlink, the oracle can.
	f := topology.NewFoldedClos(2, 4, 5)
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{
		{Src: 0, Dst: 8}, {Src: 2, Dst: 9}, {Src: 4, Dst: 6}, {Src: 6, Dst: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PacketFlits: 2, PacketsPerPair: 8}
	local, err := RunFtreeAdaptive(f, p, cfg, AdaptLocal)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunFtreeAdaptive(f, p, cfg, AdaptOracle)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Makespan > local.Makespan {
		t.Fatalf("oracle (%d) worse than local (%d)", oracle.Makespan, local.Makespan)
	}
}

func TestAdaptiveSimIntraSwitchAndSelfPairs(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 1}, {Src: 2, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PacketFlits: 2, PacketsPerPair: 3}
	res, err := RunFtreeAdaptive(f, p, cfg, AdaptLocal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 6 {
		t.Fatalf("delivered %d", res.Delivered)
	}
	// Intra-switch path is 2 hops: makespan 2L·pkts... pipelined:
	// (hops + pkts − 1)·L = (2+3−1)·2 = 8.
	if res.Makespan != 8 {
		t.Fatalf("makespan %d, want 8", res.Makespan)
	}
}

func TestAdaptiveSimValidation(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	if _, err := RunFtreeAdaptive(f, permutation.Identity(3), Config{PacketFlits: 1, PacketsPerPair: 1}, AdaptLocal); err == nil {
		t.Fatal("wrong-size pattern accepted")
	}
	if _, err := RunFtreeAdaptive(f, permutation.Identity(f.Ports()), Config{PacketFlits: 0, PacketsPerPair: 1}, AdaptLocal); err == nil {
		t.Fatal("bad config accepted")
	}
	if AdaptLocal.String() != "adapt-local" || AdaptOracle.String() != "adapt-oracle" {
		t.Fatal("mode names")
	}
	// A partial pattern routes.
	partial := permutation.New(f.Ports())
	_ = partial.Add(0, 1)
	if _, err := RunFtreeAdaptive(f, partial, Config{PacketFlits: 1, PacketsPerPair: 1}, AdaptLocal); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveVsNonblockingOnAdversary(t *testing.T) {
	// Even oracle-informed greedy per-packet adaptivity cannot match the
	// provably clean Theorem-3 assignment on every pattern: check it is
	// never better than the nonblocking makespan and strictly worse on at
	// least one of a set of adversarial patterns.
	f := topology.NewFoldedClos(2, 4, 5)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PacketFlits: 2, PacketsPerPair: 8}
	worse := false
	for _, p := range []*permutation.Permutation{
		permutation.SwitchShift(2, 5, 1),
		permutation.LocalRotate(2, 5),
		permutation.GreedyLowSpread(2, 5, 3),
	} {
		_, nb, err := RunPermutation(f.Net, paper, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		or, err := RunFtreeAdaptive(f, p, cfg, AdaptOracle)
		if err != nil {
			t.Fatal(err)
		}
		if or.Makespan < nb.Makespan {
			t.Fatalf("oracle greedy (%d) beat the nonblocking assignment (%d)", or.Makespan, nb.Makespan)
		}
		if or.Makespan > nb.Makespan {
			worse = true
		}
	}
	if !worse {
		t.Log("oracle matched nonblocking on all tested patterns (acceptable; greedy got lucky)")
	}
}
