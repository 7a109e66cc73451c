package campaign

import (
	"testing"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// TestTrialAllocs pins the per-trial cost of a campaign: drawing a
// pattern over the surviving hosts and scoring it allocates nothing for
// any scheme — the pattern draw, the per-pair link lists and the checker's
// accounting reuse worker buffers, and the adaptive scheme plans in the
// checker's PlanScratch. Before the worker state existed a trial cost 3
// allocations for the pattern plus 27 (spared), 59 (local-reroute) and 64
// (adaptive) for routing it through an Assignment on this fabric; before
// that scratch the adaptive scheme still cost 3.
func TestTrialAllocs(t *testing.T) {
	f := topology.NewFoldedClos(2, 8, 4)
	view, err := topology.FailureSet{Tops: []int{1, 6}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	alive := view.AliveHosts()
	w := newWorker(f, 1)
	for _, scheme := range DefaultSchemes() {
		r, err := BuildRouter(f, scheme, view, 1)
		if err != nil {
			t.Fatal(err)
		}
		var res cellResult
		trial := func() {
			permutation.RandomAmongInto(w.rng, w.p, alive, &w.sc)
			w.score(r, &res)
		}
		for i := 0; i < 50; i++ {
			trial() // grow the checker's per-link lists to their steady size
		}
		if got := testing.AllocsPerRun(200, trial); got != 0 {
			t.Errorf("%s: %v allocs per trial, want 0", scheme, got)
		}
		if res.routeFailures != 0 || res.routed == 0 {
			t.Fatalf("%s: fixture must route every trial (%+v)", scheme, res)
		}
	}
}
