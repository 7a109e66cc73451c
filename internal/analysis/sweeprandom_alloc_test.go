package analysis

import (
	"context"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestSweepRandomSteadyStateAllocs pins the pooled-trial property: a
// random sweep's allocation count is a per-call constant (rng, checker,
// the one reused pattern and its scratch), independent of the trial
// count, because each trial refills the pooled pattern in place and the
// checker's delta path reuses its link buffers.
func TestSweepRandomSteadyStateAllocs(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3) // m = n²: deterministic nonblocking, so no witness clone
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	hosts := f.Ports()
	measure := func(trials int) float64 {
		return testing.AllocsPerRun(10, func() {
			res, err := SweepRandomCtx(context.Background(), r, hosts, trials, 7)
			if err != nil || res.RouteErr != nil {
				t.Fatalf("SweepRandomCtx(trials=%d): %v %v", trials, err, res.RouteErr)
			}
			if res.Blocked != 0 {
				t.Fatalf("SweepRandomCtx(trials=%d): unexpectedly blocked (the fixture must stay nonblocking for this test)", trials)
			}
		})
	}
	small := measure(8)
	large := measure(64)
	if large > small {
		t.Fatalf("SweepRandomCtx allocations scale with trials: %v allocs at 8 trials, %v at 64", small, large)
	}
}
