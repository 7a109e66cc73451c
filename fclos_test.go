package fclos_test

import (
	"bytes"
	"math/rand"
	"testing"

	fclos "repro"
)

// TestPublicQuickstart exercises the README quick-start path end to end
// through the public facade only.
func TestPublicQuickstart(t *testing.T) {
	sys, err := fclos.NewDeterministicSystem(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Ports() != 80 {
		t.Fatalf("ports = %d, want 80", sys.Ports())
	}
	rep, err := sys.Verify(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Nonblocking {
		t.Fatalf("verify failed: %+v", rep)
	}
	rng := rand.New(rand.NewSource(1))
	p := fclos.RandomPermutation(rng, sys.Ports())
	_, contention, err := sys.RoutePattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if contention.HasContention() {
		t.Fatal("nonblocking system contended")
	}
}

func TestPublicTopologiesAndDOT(t *testing.T) {
	f := fclos.NewNonblockingFtree(2, 6)
	if f.M != 4 {
		t.Fatalf("m = %d, want n²=4", f.M)
	}
	var buf bytes.Buffer
	if err := fclos.WriteDOT(&buf, f.Net); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty DOT output")
	}
	if fclos.NewClos(2, 3, 4).Ports() != 8 {
		t.Fatal("Clos ports")
	}
	if fclos.NewCrossbar(7).N != 7 {
		t.Fatal("crossbar")
	}
	if fclos.NewMPortNTree(4, 2).Hosts() != 8 {
		t.Fatal("FT(4,2)")
	}
	if fclos.NewKAryNTree(2, 3).Hosts() != 8 {
		t.Fatal("2-ary 3-tree")
	}
}

func TestPublicConditionsAndCost(t *testing.T) {
	if fclos.DeterministicMinM(4) != 16 {
		t.Fatal("DeterministicMinM")
	}
	if fclos.Lemma2Cap(2, 5) != 20 {
		t.Fatal("Lemma2Cap")
	}
	if fclos.ClosStrictM(4) != 7 || fclos.ClosRearrangeableM(4) != 4 {
		t.Fatal("classic conditions")
	}
	rows := fclos.PaperTableI()
	if len(rows) != 3 || rows[0].Nonblocking.Ports != 80 {
		t.Fatal("Table I")
	}
	props, err := fclos.Plan(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) == 0 {
		t.Fatal("no proposals")
	}
}

func TestPublicSimulation(t *testing.T) {
	f := fclos.NewNonblockingFtree(2, 5)
	r, err := fclos.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fclos.SimConfig{PacketFlits: 2, PacketsPerPair: 4, Arbiter: fclos.ArbiterRoundRobin}
	p := fclos.SwitchShiftPerm(2, 5, 1)
	_, res, err := fclos.SimulatePermutation(f.Net, r, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fclos.CrossbarReference(f.Ports(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown(ref) > 1.5 {
		t.Fatalf("nonblocking slowdown %.2f", res.Slowdown(ref))
	}
}

func TestPublicAdaptive(t *testing.T) {
	f := fclos.NewFoldedClos(3, 27, 9)
	ad, err := fclos.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	p := fclos.RandomPermutation(rng, f.Ports())
	a, err := ad.Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if fclos.CheckContention(a).HasContention() {
		t.Fatal("adaptive contended")
	}
	if a.Configurations < 1 || a.TopSwitchesUsed < 1 {
		t.Fatal("adaptive stats unset")
	}
}
