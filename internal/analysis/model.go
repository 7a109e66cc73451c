package analysis

import (
	"math"
	"math/rand"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Analytic blocking model for randomized oblivious routing ([6], [15]):
// when every cross-switch SD pair of a permutation picks an independent
// uniform top switch out of m, contention arises exactly when two pairs
// sharing a source switch pick the same top switch (uplink birthday
// collision) or two pairs sharing a destination switch do (downlink). A
// random permutation keeps each pair inside its switch with probability
// 1/r (no top-level traversal), thinning the birthday participants by
// α = (1−1/r)² per colliding pair. Treating the 2r per-switch events as
// independent gives
//
//	P(contention-free) ≈ [ ∏_{i<n} (1 − i·α/m) ]^(2r)
//
// — the birthday bound that quantifies why randomized routing needs
// m ≫ r·n² before *random* permutations are usually clear, while never
// reaching the paper's guarantee: for any m some permutation still blocks
// under randomized choices.

// ModelRandomClearProb returns the analytic approximation of the
// probability that a random full permutation routes contention-free under
// independent uniform top-switch choices on ftree(n+m, r).
func ModelRandomClearProb(n, m, r int) float64 {
	alpha := 1 - 1/float64(r)
	alpha *= alpha
	logClear := 0.0
	for i := 0; i < n; i++ {
		term := 1 - float64(i)*alpha/float64(m)
		if term <= 0 {
			return 0
		}
		logClear += math.Log(term)
	}
	return math.Exp(float64(2*r) * logClear)
}

// MeasureRandomClearProb estimates the same probability by Monte Carlo:
// `trials` random permutations, each routed with freshly drawn uniform
// top-switch choices (a new random-fixed table per trial).
func MeasureRandomClearProb(n, m, r, trials int, seed int64) (float64, error) {
	f := topology.NewFoldedClos(n, m, r)
	rng := rand.New(rand.NewSource(seed))
	c := NewChecker(f.Net)
	clear := 0
	for trial := 0; trial < trials; trial++ {
		router := routing.NewRandomFixed(f, rng.Int63())
		p := permutation.Random(rng, f.Ports())
		if err := c.AnalyzePattern(router, p); err != nil {
			return 0, err
		}
		if !c.HasContention() {
			clear++
		}
	}
	if trials == 0 {
		return 0, nil
	}
	return float64(clear) / float64(trials), nil
}
