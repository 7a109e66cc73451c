package analysis

import (
	"math"
	"testing"
)

func TestModelClearProbEdgeCases(t *testing.T) {
	// Saturated birthday term: i·α/m ≥ 1 collapses to 0.
	if ModelRandomClearProb(40, 3, 100) != 0 {
		t.Fatal("saturated case should be 0")
	}
	// n = 1: every pair has its own source and destination switch slot;
	// never a collision.
	if got := ModelRandomClearProb(1, 1, 5); got != 1 {
		t.Fatalf("n=1 clear prob = %v", got)
	}
	// Monotone in m.
	prev := 0.0
	for _, m := range []int{2, 4, 8, 16, 64, 256} {
		p := ModelRandomClearProb(2, m, 5)
		if p < prev {
			t.Fatalf("clear prob not monotone at m=%d", m)
		}
		prev = p
	}
	// Large m limit approaches 1.
	if p := ModelRandomClearProb(2, 1<<20, 5); p < 0.9999 {
		t.Fatalf("large-m clear prob = %v", p)
	}
}

func TestModelMatchesMonteCarlo(t *testing.T) {
	// The independence approximation should track measurements within a
	// few percentage points on small instances.
	cases := []struct{ n, m, r int }{
		{2, 8, 4}, {2, 16, 4}, {2, 32, 4}, {3, 27, 3},
	}
	for _, c := range cases {
		model := ModelRandomClearProb(c.n, c.m, c.r)
		meas, err := MeasureRandomClearProb(c.n, c.m, c.r, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(model - meas); diff > 0.12 {
			t.Errorf("n=%d m=%d r=%d: model %.3f vs measured %.3f (diff %.3f)",
				c.n, c.m, c.r, model, meas, diff)
		}
	}
}

func TestMeasureRandomClearProbZeroTrials(t *testing.T) {
	got, err := MeasureRandomClearProb(2, 8, 3, 0, 1)
	if err != nil || got != 0 {
		t.Fatal("zero trials should return 0, nil")
	}
}
