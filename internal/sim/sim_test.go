package sim

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func defaultCfg() Config {
	return Config{PacketFlits: 4, PacketsPerPair: 3}
}

func TestSingleFlowLatency(t *testing.T) {
	// One flow over a 4-hop path, store-and-forward: first packet lands
	// at 4L, pipelined successors every L; makespan = (hops+pkts-1)·L.
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := RunPermutation(f.Net, r, p, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	wantMakespan := int64(4 * (4 + 3 - 1)) // L=4, hops=4, pkts=3
	if res.Makespan != wantMakespan {
		t.Fatalf("makespan = %d, want %d", res.Makespan, wantMakespan)
	}
	if res.Delivered != 3 || res.TotalPackets != 3 {
		t.Fatalf("delivered %d/%d", res.Delivered, res.TotalPackets)
	}
	if res.Aborted {
		t.Fatal("aborted")
	}
	if res.MeanLatency() <= 0 {
		t.Fatal("mean latency should be positive")
	}
}

func TestSelfPairDeliversInstantly(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 2, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := RunPermutation(f.Net, r, p, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.Delivered != 3 {
		t.Fatalf("self pair: makespan=%d delivered=%d", res.Makespan, res.Delivered)
	}
}

func TestContendedFlowsSerialize(t *testing.T) {
	// Two flows forced through the same top switch toward the same
	// bottom switch share a downlink: makespan must exceed the
	// single-flow makespan.
	f := topology.NewFoldedClos(2, 2, 3)
	bad := &routing.FtreeSinglePath{F: f, RouterName: "collide", TopChoice: func(s, d int) int { return 0 }}
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 4}, {Src: 2, Dst: 5}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := bad.Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if !analysis.Check(a).HasContention() {
		t.Fatal("expected contention in setup")
	}
	res, err := Run(f.Net, FlowsFromAssignment(a), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	solo := int64(4 * (4 + 3 - 1))
	if res.Makespan <= solo {
		t.Fatalf("contended makespan %d not above solo %d", res.Makespan, solo)
	}
	// The shared downlink must be busy for both flows' packets: 6 packets × L.
	shared := f.DownLink(0, 2)
	if res.LinkBusy[shared] != 6*4 {
		t.Fatalf("shared downlink busy %d, want 24", res.LinkBusy[shared])
	}
}

func TestNonblockingMatchesCrossbar(t *testing.T) {
	// E6 core claim: the Theorem-3 nonblocking ftree delivers permutation
	// traffic at crossbar speed (same makespan up to the constant path
	// depth), while dest-mod static routing is strictly slower on a
	// pattern it blocks.
	f := topology.NewFoldedClos(2, 4, 5)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PacketFlits: 2, PacketsPerPair: 8}
	p := permutation.SwitchShift(2, 5, 1)
	_, resGood, err := RunPermutation(f.Net, good, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CrossbarReference(f.Ports(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Crossbar: 2-hop paths; ftree: 4-hop. Extra pipeline depth adds
	// 2·L cycles; steady-state bandwidth identical.
	if got, want := resGood.Makespan, ref.Makespan+2*2; got != want {
		t.Fatalf("nonblocking makespan %d, want crossbar+pipeline %d", got, want)
	}
	// Dest-mod collides hosts 4 and 8 (both ≡ 0 mod m=4) on the uplink of
	// switch 0: the two-pair permutation serializes and is strictly
	// slower than the nonblocking routing on the same pattern.
	bad := routing.NewDestMod(f)
	collide, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 4}, {Src: 1, Dst: 8}})
	if err != nil {
		t.Fatal(err)
	}
	_, resBad, err := RunPermutation(f.Net, bad, collide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, resGood2, err := RunPermutation(f.Net, good, collide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resBad.Makespan <= resGood2.Makespan {
		t.Fatalf("dest-mod (%d) should be slower than nonblocking (%d) on the colliding pattern", resBad.Makespan, resGood2.Makespan)
	}
}

func TestArbiterPoliciesBothComplete(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 4)
	r := routing.NewDestMod(f) // blocking: exercises arbitration
	p := permutation.LocalRotate(2, 4)
	for _, arb := range []Arbiter{OldestFirst, RoundRobin} {
		cfg := Config{PacketFlits: 3, PacketsPerPair: 5, Arbiter: arb}
		_, res, err := RunPermutation(f.Net, r, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != res.TotalPackets {
			t.Fatalf("%v: delivered %d/%d", arb, res.Delivered, res.TotalPackets)
		}
		if res.Aborted {
			t.Fatalf("%v: aborted", arb)
		}
	}
	if OldestFirst.String() != "oldest-first" || RoundRobin.String() != "round-robin" {
		t.Fatal("Arbiter.String wrong")
	}
}

func TestSprayPolicies(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	spray := routing.NewFullSpray(f)
	p := permutation.SwitchShift(2, 4, 1)
	for _, sp := range []Spray{SprayRoundRobin, SprayRandom} {
		cfg := Config{PacketFlits: 2, PacketsPerPair: 8, Spray: sp, Seed: 5}
		_, res, err := RunPermutation(f.Net, spray, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != res.TotalPackets {
			t.Fatalf("spray %v: delivered %d/%d", sp, res.Delivered, res.TotalPackets)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	f := topology.NewFoldedClos(3, 4, 4)
	r := routing.NewDestMod(f)
	p := permutation.LocalRotate(3, 4)
	cfg := Config{PacketFlits: 3, PacketsPerPair: 4, Arbiter: RoundRobin}
	_, r1, err := RunPermutation(f.Net, r, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := RunPermutation(f.Net, r, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.SumLatency != r2.SumLatency {
		t.Fatal("simulation not deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	p := permutation.Identity(f.Ports())
	if _, _, err := RunPermutation(f.Net, r, p, Config{PacketFlits: 0, PacketsPerPair: 1}); err == nil {
		t.Fatal("PacketFlits=0 accepted")
	}
	if _, _, err := RunPermutation(f.Net, r, p, Config{PacketFlits: 1, PacketsPerPair: 0}); err == nil {
		t.Fatal("PacketsPerPair=0 accepted")
	}
	// Empty flow paths rejected.
	if _, err := Run(f.Net, []Flow{{}}, defaultCfg()); err == nil {
		t.Fatal("empty path set accepted")
	}
	// Invalid path rejected.
	badPath := topology.Path{Nodes: []topology.NodeID{0, 1}, Links: []topology.LinkID{999}}
	if _, err := Run(f.Net, []Flow{{Paths: []topology.Path{badPath}}}, defaultCfg()); err == nil {
		t.Fatal("invalid path accepted")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 4)
	r := routing.NewDestMod(f)
	p := permutation.LocalRotate(2, 4)
	cfg := Config{PacketFlits: 10, PacketsPerPair: 50, MaxCycles: 20}
	_, res, err := RunPermutation(f.Net, r, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expected abort at MaxCycles")
	}
	if res.Delivered >= res.TotalPackets {
		t.Fatal("abort should leave packets undelivered")
	}
}

func TestCompareToCrossbar(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PacketFlits: 2, PacketsPerPair: 4}
	sum, err := CompareToCrossbar(f.Net, good, f.Ports(), 5, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Patterns != 5 {
		t.Fatalf("patterns = %d", sum.Patterns)
	}
	// Nonblocking: slowdown is only the fixed pipeline depth, well below
	// serialization-induced slowdowns.
	if sum.MaxSlowdown > 1.6 {
		t.Fatalf("nonblocking max slowdown %.2f too high", sum.MaxSlowdown)
	}
	bad := routing.NewDestMod(f)
	sumBad, err := CompareToCrossbar(f.Net, bad, f.Ports(), 5, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sumBad.MeanSlowdown <= sum.MeanSlowdown {
		t.Fatalf("dest-mod mean slowdown %.2f not above nonblocking %.2f", sumBad.MeanSlowdown, sum.MeanSlowdown)
	}
	if sumBad.MedianSlowdown <= 0 || sumBad.MeanRelThroughput <= 0 {
		t.Fatal("summary fields unset")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{}
	if r.MeanLatency() != 0 || r.MaxLinkUtilization() != 0 {
		t.Fatal("zero-result helpers should return 0")
	}
	if (&Result{Makespan: 10}).Slowdown(&Result{Makespan: 0}) != 1 {
		t.Fatal("zero reference should give slowdown 1")
	}
	r = &Result{Makespan: 10, LinkBusy: []int64{0, 5, 8}}
	if got := r.MaxLinkUtilization(); got != 0.8 {
		t.Fatalf("util = %v", got)
	}
}
