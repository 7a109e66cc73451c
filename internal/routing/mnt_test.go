package routing_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestMNTDestModPathsValid(t *testing.T) {
	for _, c := range [][2]int{{4, 2}, {4, 3}, {6, 2}} {
		tr := topology.NewMPortNTree(c[0], c[1])
		r := routing.NewMNTDestMod(tr)
		for s := 0; s < tr.Hosts(); s++ {
			for d := 0; d < tr.Hosts(); d++ {
				p, err := r.PathFor(s, d)
				if err != nil {
					t.Fatalf("FT(%d,%d) %d->%d: %v", c[0], c[1], s, d, err)
				}
				if s == d {
					if p.Len() != 0 {
						t.Fatal("self path should be linkless")
					}
					continue
				}
				if !p.Valid(tr.Net) {
					t.Fatalf("invalid path %d->%d", s, d)
				}
			}
		}
	}
}

func TestMNTDestModDestinationConsistency(t *testing.T) {
	// Destination-keyed routing sends all sources to one destination over
	// the same top-level switch: the down-paths into d coincide.
	tr := topology.NewMPortNTree(6, 2)
	r := routing.NewMNTDestMod(tr)
	d := int(tr.HostID(4, 2))
	var apex topology.NodeID = -1
	for s := 0; s < tr.Hosts(); s++ {
		if s == d || s/3 == d/3 {
			continue
		}
		p, err := r.PathFor(s, d)
		if err != nil {
			t.Fatal(err)
		}
		mid := tr.Net.Link(p.Links[1]).To
		if apex == -1 {
			apex = mid
		} else if apex != mid {
			t.Fatalf("destination %d reached via two apexes %d and %d", d, apex, mid)
		}
	}
}

func TestMNTDestModBlocksRandomPermutations(t *testing.T) {
	// The Hoefler/Geoffray motivation: static routing on a rearrangeably
	// nonblocking fat-tree blocks many permutations.
	tr := topology.NewMPortNTree(6, 2)
	r := routing.NewMNTDestMod(tr)
	frac, meanLoad, err := analysis.BlockingProbability(r, tr.Hosts(), 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.5 {
		t.Fatalf("blocking fraction %.2f unexpectedly low for static routing", frac)
	}
	if meanLoad <= 1 {
		t.Fatalf("mean max link load %.2f, expected > 1", meanLoad)
	}
}

func TestMNTRandomFixedReproducible(t *testing.T) {
	tr := topology.NewMPortNTree(4, 3)
	r1 := routing.NewMNTRandomFixed(tr, 42)
	r2 := routing.NewMNTRandomFixed(tr, 42)
	r3 := routing.NewMNTRandomFixed(tr, 43)
	diff := false
	for s := 0; s < tr.Hosts(); s++ {
		for d := 0; d < tr.Hosts(); d++ {
			p1, err1 := r1.PathFor(s, d)
			p2, err2 := r2.PathFor(s, d)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !slices.Equal(p1.Links, p2.Links) {
				t.Fatal("same seed produced different paths")
			}
			p3, err := r3.PathFor(s, d)
			if err != nil {
				t.Fatal(err)
			}
			diff = diff || !slices.Equal(p1.Links, p3.Links)
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical routings")
	}
	a, err := r1.Route(permutation.Shift(tr.Hosts(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMNTSpray(t *testing.T) {
	tr := topology.NewMPortNTree(4, 2)
	if _, err := routing.NewMNTSpray(tr, 0, 1); err == nil {
		t.Fatal("width 0 accepted")
	}
	r, err := routing.NewMNTSpray(tr, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-group pair in FT(4,2): k = 2 distinct paths total.
	ps := pathSet(t, r, tr.Hosts(), 0, 7)
	if len(ps) != 2 {
		t.Fatalf("full diversity = %d paths, want 2", len(ps))
	}
	// Width smaller than diversity.
	r2, err := routing.NewMNTSpray(tr, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps := pathSet(t, r2, tr.Hosts(), 0, 7); len(ps) != 1 {
		t.Fatalf("width-1 spray = %d paths", len(ps))
	}
	// Self pair.
	if ps := pathSet(t, r, tr.Hosts(), 2, 2); len(ps) != 1 || ps[0].Len() != 0 {
		t.Fatal("self pair wrong")
	}
	a, err := r.Route(permutation.Shift(tr.Hosts(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestThreeLevelPaperNonblocking(t *testing.T) {
	// The three-level construction with the recursive Theorem-3 routing
	// must satisfy Lemma 1 over all SD pairs (Discussion §IV.A).
	for _, n := range []int{2, 3} {
		m := topology.NewMultiFtree(n, 3)
		res, err := analysis.CheckLemma1AllPairs(routing.NewMultiLevelPaper(m), m.Ports())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Nonblocking {
			t.Fatalf("3-level construction (n=%d) violates Lemma 1: %+v", n, res.Violation)
		}
	}
}

func TestMultiLevelPaperNonblocking(t *testing.T) {
	// The generic recursive construction must satisfy Lemma 1 at the
	// other depths (TestThreeLevelPaperNonblocking checks depth 3) — the
	// induction step of the Discussion, checked exactly.
	for _, c := range [][2]int{{2, 2}, {3, 2}, {2, 4}} {
		m := topology.NewMultiFtree(c[0], c[1])
		r := routing.NewMultiLevelPaper(m)
		res, err := analysis.CheckLemma1AllPairs(r, m.Ports())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Nonblocking {
			t.Errorf("ftree%d(n=%d) violates Lemma 1: %+v", c[1], c[0], res.Violation)
		}
	}
}

func TestMultiLevelPaperMechanics(t *testing.T) {
	m := topology.NewMultiFtree(2, 3)
	r := routing.NewMultiLevelPaper(m)
	if r.Name() != "paper-multi-level" {
		t.Fatal("name")
	}
	if _, err := r.PathFor(-1, 0); err == nil {
		t.Fatal("range check missing")
	}
	p, err := r.PathFor(5, 5)
	if err != nil || p.Len() != 0 {
		t.Fatal("self pair wrong")
	}
	a, err := r.Route(permutation.Shift(m.Ports(), 7))
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Check(a).HasContention() {
		t.Fatal("shift pattern contends on the recursive construction")
	}
}

func TestCrossbarRouterNeverBlocks(t *testing.T) {
	x := topology.NewCrossbar(6)
	r := routing.NewCrossbarRouter(x)
	res := sweep(t, r, 6, analysis.Spec{})
	if !res.Nonblocking() {
		t.Fatalf("crossbar blocked %d/%d", res.Blocked, res.Tested)
	}
	if res.MaxLinkLoad != 1 {
		t.Fatalf("crossbar max link load %d", res.MaxLinkLoad)
	}
	if _, err := r.PathFor(0, 9); err == nil {
		t.Fatal("out-of-range accepted")
	}
	p, err := r.PathFor(2, 2)
	if err != nil || p.Len() != 0 {
		t.Fatal("self pair wrong")
	}
}

func TestMNTRoutersRandomPermutationsValid(t *testing.T) {
	tr := topology.NewMPortNTree(6, 3)
	rng := rand.New(rand.NewSource(14))
	routers := []routing.Router{
		routing.NewMNTDestMod(tr),
		routing.NewMNTRandomFixed(tr, 5),
	}
	for _, r := range routers {
		for trial := 0; trial < 5; trial++ {
			p := permutation.Random(rng, tr.Hosts())
			a, err := r.Route(p)
			if err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
		}
	}
}
