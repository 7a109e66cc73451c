package routing_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func checkColoring(t *testing.T, nLeft, nRight int, edges [][2]int, colors []int, maxDeg int) {
	t.Helper()
	if len(colors) != len(edges) {
		t.Fatalf("colors %d, edges %d", len(colors), len(edges))
	}
	usedL := map[[2]int]bool{}
	usedR := map[[2]int]bool{}
	for i, e := range edges {
		c := colors[i]
		if c < 0 || c >= maxDeg {
			t.Fatalf("edge %d color %d out of [0,%d)", i, c, maxDeg)
		}
		if usedL[[2]int{e[0], c}] {
			t.Fatalf("left vertex %d repeats color %d", e[0], c)
		}
		if usedR[[2]int{e[1], c}] {
			t.Fatalf("right vertex %d repeats color %d", e[1], c)
		}
		usedL[[2]int{e[0], c}] = true
		usedR[[2]int{e[1], c}] = true
	}
}

func TestEdgeColorSimple(t *testing.T) {
	edges := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	colors, err := routing.EdgeColorBipartite(2, 2, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkColoring(t, 2, 2, edges, colors, 2)
}

func TestEdgeColorMultigraph(t *testing.T) {
	// Parallel edges force distinct colors.
	edges := [][2]int{{0, 0}, {0, 0}, {0, 0}}
	colors, err := routing.EdgeColorBipartite(1, 1, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkColoring(t, 1, 1, edges, colors, 3)
}

func TestEdgeColorEmptyAndErrors(t *testing.T) {
	colors, err := routing.EdgeColorBipartite(3, 3, nil)
	if err != nil || len(colors) != 0 {
		t.Fatal("empty graph should color trivially")
	}
	if _, err := routing.EdgeColorBipartite(2, 2, [][2]int{{2, 0}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := routing.EdgeColorBipartite(2, 2, [][2]int{{0, -1}}); err == nil {
		t.Fatal("negative vertex accepted")
	}
}

func TestEdgeColorRandomQuick(t *testing.T) {
	f := func(seed int64, szL, szR, ne uint8) bool {
		nl := int(szL%6) + 1
		nr := int(szR%6) + 1
		n := int(ne % 40)
		rng := rand.New(rand.NewSource(seed))
		edges := make([][2]int, n)
		deg := 0
		dl := make([]int, nl)
		dr := make([]int, nr)
		for i := range edges {
			edges[i] = [2]int{rng.Intn(nl), rng.Intn(nr)}
			dl[edges[i][0]]++
			dr[edges[i][1]]++
			if dl[edges[i][0]] > deg {
				deg = dl[edges[i][0]]
			}
			if dr[edges[i][1]] > deg {
				deg = dr[edges[i][1]]
			}
		}
		colors, err := routing.EdgeColorBipartite(nl, nr, edges)
		if err != nil {
			return false
		}
		usedL := map[[2]int]bool{}
		usedR := map[[2]int]bool{}
		for i, e := range edges {
			c := colors[i]
			if c < 0 || c >= deg {
				return false
			}
			if usedL[[2]int{e[0], c}] || usedR[[2]int{e[1], c}] {
				return false
			}
			usedL[[2]int{e[0], c}] = true
			usedR[[2]int{e[1], c}] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalRearrangeableBenesCondition(t *testing.T) {
	// m = n suffices under centralized control (Benes): every permutation
	// of ftree(3+3, 4) routes contention-free.
	f := topology.NewFoldedClos(3, 3, 4)
	r := routing.NewGlobalRearrangeable(f)
	res := sweepRandom(t, r, f.Ports(), 300, 21)
	if !res.Nonblocking() {
		t.Fatalf("m=n blocked %d/%d (err %v)", res.Blocked, res.Tested, res.RouteErr)
	}
	// Exhaustive on a tiny instance.
	f2 := topology.NewFoldedClos(2, 2, 3)
	r2 := routing.NewGlobalRearrangeable(f2)
	res2 := sweep(t, r2, f2.Ports(), analysis.Spec{})
	if !res2.Nonblocking() {
		t.Fatalf("exhaustive: blocked %d/%d (err %v)", res2.Blocked, res2.Tested, res2.RouteErr)
	}
}

func TestGlobalRearrangeableFailsBelowN(t *testing.T) {
	// m = n−1 cannot route a full permutation that loads some switch's
	// uplinks with n cross-switch pairs.
	f := topology.NewFoldedClos(3, 2, 4)
	r := routing.NewGlobalRearrangeable(f)
	if _, err := r.Route(permutation.SwitchShift(3, 4, 1)); err == nil {
		t.Fatal("expected failure with m < n")
	}
	if _, err := r.Route(permutation.Identity(5)); err == nil {
		t.Fatal("wrong-size pattern accepted")
	}
}

func TestGlobalRearrangeableHandlesLocalPairs(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	r := routing.NewGlobalRearrangeable(f)
	p, err := permutation.FromPairs(6, []permutation.Pair{{Src: 0, Dst: 1}, {Src: 2, Dst: 2}, {Src: 3, Dst: 5}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if analysis.Check(a).HasContention() {
		t.Fatal("mixed local/self/cross pattern contends")
	}
}

func TestClosRearrangeable(t *testing.T) {
	c := topology.NewClos(3, 3, 4)
	r := routing.NewClosRearrangeable(c)
	if r.Name() != "clos-rearrangeable" {
		t.Fatal("name")
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		p := permutation.Random(rng, c.Ports())
		a, err := r.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if rep := analysis.Check(a); rep.HasContention() {
			t.Fatalf("Benes m=n blocked on Clos: %v", rep.ContentionError())
		}
		if a.TopSwitchesUsed > c.N {
			t.Fatalf("used %d middle switches, want <= n=%d", a.TopSwitchesUsed, c.N)
		}
	}
	// Same-index input/output switches still cross the middle stage.
	p, err := permutation.FromPairs(c.Ports(), []permutation.Pair{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Path(0).Len() != 4 {
		t.Fatal("Clos path must have 4 hops")
	}
	// m < n fails on a saturating permutation.
	small := topology.NewClos(3, 2, 2)
	rs := routing.NewClosRearrangeable(small)
	if _, err := rs.Route(permutation.Shift(small.Ports(), 1)); err == nil {
		t.Fatal("expected failure with m < n")
	}
	if _, err := rs.Route(permutation.Identity(2)); err == nil {
		t.Fatal("wrong-size pattern accepted")
	}
}
