package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestAnalyzePatternAdaptiveAllocs pins the pattern-dependent routers'
// scoring path at zero allocations once warm: NONBLOCKINGADAPTIVE and its
// failure-avoiding form plan each pattern in the checker's PlanScratch,
// and the checker reuses its link and load buffers, so analyzing a fresh
// random pattern allocates nothing.
func TestAnalyzePatternAdaptiveAllocs(t *testing.T) {
	f := topology.NewFoldedClos(2, 24, 4)
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	view, err := topology.FailureSet{Tops: []int{1, 6}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	avoid, err := routing.NewAvoidingAdaptive(f, view)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []routing.Router{ad, avoid} {
		c := NewChecker(f.Net)
		rng := rand.New(rand.NewSource(1))
		p := permutation.New(f.Ports())
		analyze := func() {
			permutation.RandomInto(rng, p)
			if err := c.AnalyzePattern(r, p); err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
		}
		for i := 0; i < 50; i++ {
			analyze() // grow the checker's buffers to their steady size
		}
		if got := testing.AllocsPerRun(200, analyze); got != 0 {
			t.Errorf("%s: %v allocs per AnalyzePattern, want 0", r.Name(), got)
		}
	}
}
