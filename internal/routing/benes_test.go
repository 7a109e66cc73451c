package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestBenesTopologyStructure(t *testing.T) {
	for k := 1; k <= 5; k++ {
		b := topology.NewBenes(k)
		if b.N != 1<<k || b.Stages() != 2*k-1 {
			t.Fatalf("k=%d: N=%d stages=%d", k, b.N, b.Stages())
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("k=0 should panic")
			}
		}()
		topology.NewBenes(0)
	}()
}

func TestBenesLoopingExhaustive(t *testing.T) {
	// Every permutation of B(2) (N=4, 4! = 24) and B(3) (N=8, 8! = 40320)
	// must route with edge-disjoint paths — rearrangeability, proven by
	// execution.
	for k := 1; k <= 3; k++ {
		b := topology.NewBenes(k)
		r := routing.NewBenesLooping(b)
		res := sweep(t, r, b.N, analysis.Spec{})
		if !res.Nonblocking() {
			t.Fatalf("k=%d: looping blocked %d/%d (err %v); first %v",
				k, res.Blocked, res.Tested, res.RouteErr, res.FirstBlocked)
		}
		if res.Tested != permutation.CountFull(b.N) {
			t.Fatalf("k=%d: tested %d", k, res.Tested)
		}
	}
}

func TestBenesLoopingRandomLarge(t *testing.T) {
	b := topology.NewBenes(6) // 64 terminals, 11 stages
	r := routing.NewBenesLooping(b)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		p := permutation.Random(rng, b.N)
		a, err := r.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		rep := analysis.Check(a)
		if rep.HasContention() {
			t.Fatalf("trial %d: %v", trial, rep.ContentionError())
		}
		// Every path must have exactly stages+1 hops.
		for i := range a.Pairs {
			if got := a.Path(i).Len(); got != b.Stages()+1 {
				t.Fatalf("path length %d, want %d", got, b.Stages()+1)
			}
		}
	}
}

func TestBenesLoopingPartialPatterns(t *testing.T) {
	b := topology.NewBenes(3)
	r := routing.NewBenesLooping(b)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		p := randomPartial(rng, b.N, 0.5)
		a, err := r.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Pairs) != p.Size() {
			t.Fatalf("returned %d pairs, pattern has %d", len(a.Pairs), p.Size())
		}
		if analysis.Check(a).HasContention() {
			t.Fatal("partial pattern contends")
		}
	}
}

func TestBenesLoopingIdentityAndReversal(t *testing.T) {
	b := topology.NewBenes(4)
	r := routing.NewBenesLooping(b)
	for _, p := range []*permutation.Permutation{
		permutation.Identity(b.N),
		permutation.BitReversal(b.N),
		permutation.Shift(b.N, 5),
		permutation.Neighbor(b.N),
	} {
		a, err := r.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if analysis.Check(a).HasContention() {
			t.Fatalf("pattern %s contends", p)
		}
	}
}

func TestBenesLoopingWrongSize(t *testing.T) {
	b := topology.NewBenes(2)
	r := routing.NewBenesLooping(b)
	if _, err := r.Route(permutation.Identity(5)); err == nil {
		t.Fatal("wrong-size pattern accepted")
	}
	if r.Name() != "benes-looping" {
		t.Fatal("name")
	}
}

func TestBenesSwitchCostComparison(t *testing.T) {
	// §II context: Benes costs (2k−1)·N/2 2×2 switches — N log N scale —
	// versus the paper's 2-level nonblocking cost in larger switches.
	b := topology.NewBenes(4)
	if got := b.Net.NumSwitches(); got != 7*8 {
		t.Fatalf("B(16) switches = %d, want 56", got)
	}
}
