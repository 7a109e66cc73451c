package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// failedTopsView is the failure view of f with the given top switches
// failed.
func failedTopsView(t *testing.T, f *topology.FoldedClos, tops ...int) *topology.FailureView {
	t.Helper()
	view, err := topology.FailureSet{Tops: tops}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func TestAdaptiveRouteAvoidingStaysNonblocking(t *testing.T) {
	// ftree(2+14, 4): the simple bound needs 1 configuration of 6
	// switches; fail 8 of the 14 and the adaptive router must still route
	// every pattern clean through the 6 healthy ones.
	f := topology.NewFoldedClos(2, 14, 4)
	failed := failedTopsView(t, f, 0, 2, 3, 5, 7, 8, 11, 13)
	r, err := routing.NewAvoidingAdaptive(f, failed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := permutation.Random(rng, f.Ports())
		a, err := r.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if analysis.Check(a).HasContention() {
			t.Fatalf("contention with failures on %s", p)
		}
		for _, ps := range a.PathSets {
			for _, path := range ps {
				for _, l := range path.Links {
					nd := f.Net.Node(f.Net.Link(l).To)
					if nd.Kind == topology.Switch && nd.Level == 2 && !failed.TopIntact(nd.Index) {
						t.Fatalf("path uses failed top switch %d", nd.Index)
					}
				}
			}
		}
	}
}

func TestAdaptiveRouteAvoidingExhaustsHealthy(t *testing.T) {
	f := topology.NewFoldedClos(2, 6, 4)
	// Only 5 healthy switches < one configuration (6): must error on a
	// pattern with cross-switch pairs.
	r, err := routing.NewAvoidingAdaptive(f, failedTopsView(t, f, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(permutation.SwitchShift(2, 4, 1)); err == nil {
		t.Fatal("expected healthy-exhausted error")
	}
	// A purely local pattern still routes.
	local, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(local); err != nil {
		t.Fatal(err)
	}
}

func TestSparedDeterministicSurvivesFailures(t *testing.T) {
	// m = n² + 3 spares; fail 3 class switches: still exactly nonblocking.
	n, r := 3, 7
	f := topology.NewFoldedClos(n, n*n+3, r)
	view := failedTopsView(t, f, 0, 4, 8)
	sp, err := routing.NewSparedDeterministicView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	// No class may be remapped onto a failed switch: every pair's path
	// must be healthy.
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			if p, err := sp.PathFor(s, d); err != nil || !view.PathHealthy(p) {
				t.Fatalf("pair %d->%d: path %v (err %v) crosses a failed switch", s, d, p.Links, err)
			}
		}
	}
	res, err := analysis.CheckLemma1AllPairs(sp, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatalf("spared scheme not nonblocking: %+v", res.Violation)
	}
}

func TestSparedDeterministicFailedSpare(t *testing.T) {
	// A failed spare must be skipped when remapping.
	n := 2
	f := topology.NewFoldedClos(n, n*n+2, 5)
	// Class 1 and the first spare.
	sp, err := routing.NewSparedDeterministicView(f, failedTopsView(t, f, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.CheckLemma1AllPairs(sp, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatal("failed spare mishandled")
	}
}

func TestSparedDeterministicExhaustsSpares(t *testing.T) {
	n := 2
	f := topology.NewFoldedClos(n, n*n+1, 5)
	// Two failures, one spare.
	if _, err := routing.NewSparedDeterministicView(f, failedTopsView(t, f, 0, 1)); err == nil {
		t.Fatal("expected spare-exhausted error")
	}
	small := topology.NewFoldedClos(2, 3, 5)
	if _, err := routing.NewSparedDeterministicView(small, failedTopsView(t, small)); err == nil {
		t.Fatal("m < n² accepted")
	}
}

func TestSparedDeterministicMechanics(t *testing.T) {
	f := topology.NewFoldedClos(2, 6, 4)
	sp, err := routing.NewSparedDeterministicView(f, failedTopsView(t, f, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name() != "paper-deterministic-spared" {
		t.Fatal("name")
	}
	if _, err := sp.PathFor(-1, 0); err == nil {
		t.Fatal("range check missing")
	}
	p, err := sp.PathFor(3, 3)
	if err != nil || p.Len() != 0 {
		t.Fatal("self pair wrong")
	}
	p, err = sp.PathFor(0, 1)
	if err != nil || p.Len() != 2 {
		t.Fatal("local pair wrong")
	}
	a, err := sp.Route(permutation.SwitchShift(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Check(a).HasContention() {
		t.Fatal("spared route contends")
	}
}

func TestNaiveRemapViolatesLemma1(t *testing.T) {
	// Folding a failed class onto a neighbour class's switch merges two
	// classes and must produce a Lemma-1 violation and a real blocking
	// permutation.
	n := 2
	f := topology.NewFoldedClos(n, n*n, 5)
	nr, err := routing.NewNaiveRemapView(f, failedTopsView(t, f, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.CheckLemma1AllPairs(nr, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if res.Nonblocking {
		t.Fatal("naive remap reported nonblocking")
	}
	w, err := analysis.BlockingWitness(res, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	a, err := nr.Route(w)
	if err != nil {
		t.Fatal(err)
	}
	if !analysis.Check(a).HasContention() {
		t.Fatal("witness does not block")
	}
	// No failures: identical to the exact scheme, still nonblocking.
	clean, err := routing.NewNaiveRemapView(f, failedTopsView(t, f))
	if err != nil {
		t.Fatal(err)
	}
	res, err = analysis.CheckLemma1AllPairs(clean, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatal("no-failure remap should be nonblocking")
	}
	// All class switches failed: constructor refuses.
	if _, err := routing.NewNaiveRemapView(f, failedTopsView(t, f, 0, 1, 2, 3)); err == nil {
		t.Fatal("total failure accepted")
	}
	small := topology.NewFoldedClos(2, 3, 5)
	if _, err := routing.NewNaiveRemapView(small, failedTopsView(t, small)); err == nil {
		t.Fatal("m < n² accepted")
	}
}
