package campaign

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
)

// Scenario selects how a campaign draws failure sets of a given size.
type Scenario string

const (
	// ScenarioLinks fails k distinct trunk cables drawn uniformly from
	// the r·m bottom↔top duplex cables — independent cable faults.
	ScenarioLinks Scenario = "links"
	// ScenarioTops fails k distinct top-level switches drawn uniformly —
	// independent switch faults, the paper's degraded-mode model.
	ScenarioTops Scenario = "tops"
	// ScenarioTopsCorrelated fails a contiguous (cyclic) block of k top
	// switches starting at a uniform offset — a shared power feed or a
	// staged firmware rollout taking out neighbors together. Correlation
	// is the worst case for the spared deterministic scheme, whose
	// spares are themselves contiguous.
	ScenarioTopsCorrelated Scenario = "tops-correlated"
	// ScenarioPods fails k distinct bottom-level switches, detaching
	// each one's n hosts — whole-pod loss.
	ScenarioPods Scenario = "pods"
)

// KnownScenario reports whether sc names a scenario.
func KnownScenario(sc Scenario) bool {
	switch sc {
	case ScenarioLinks, ScenarioTops, ScenarioTopsCorrelated, ScenarioPods:
		return true
	}
	return false
}

// ScenarioDomain returns how many elements of ftree(n+m, r) the scenario
// can fail — the upper bound for a campaign's MaxFailures.
func ScenarioDomain(sc Scenario, n, m, r int) (int, error) {
	switch sc {
	case ScenarioLinks:
		return r * m, nil
	case ScenarioTops, ScenarioTopsCorrelated:
		return m, nil
	case ScenarioPods:
		return r, nil
	}
	return 0, fmt.Errorf("campaign: unknown scenario %q", sc)
}

// SampleFailures draws one failure set with exactly k failed elements.
// The draw consumes a deterministic amount of rng state for a given
// (scenario, k, fabric), so derived seeds stay reproducible.
func SampleFailures(f *topology.FoldedClos, sc Scenario, k int, rng *rand.Rand) (topology.FailureSet, error) {
	dom, err := ScenarioDomain(sc, f.N, f.M, f.R)
	if err != nil {
		return topology.FailureSet{}, err
	}
	if k < 0 || k > dom {
		return topology.FailureSet{}, fmt.Errorf("campaign: cannot fail %d of %d %s elements", k, dom, sc)
	}
	var fs topology.FailureSet
	switch sc {
	case ScenarioLinks:
		for _, idx := range rng.Perm(dom)[:k] {
			fs.Trunks = append(fs.Trunks, topology.Trunk{Bottom: idx / f.M, Top: idx % f.M})
		}
	case ScenarioTops:
		fs.Tops = append(fs.Tops, rng.Perm(f.M)[:k]...)
	case ScenarioTopsCorrelated:
		start := rng.Intn(f.M)
		for i := 0; i < k; i++ {
			fs.Tops = append(fs.Tops, (start+i)%f.M)
		}
	case ScenarioPods:
		fs.Bottoms = append(fs.Bottoms, rng.Perm(f.R)[:k]...)
	}
	fs.Normalize()
	return fs, nil
}
