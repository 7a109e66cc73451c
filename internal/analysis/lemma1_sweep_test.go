package analysis

import (
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestLemma1MatchesExhaustiveSweep is the differential test of the paper's
// Lemma 1: for single-path deterministic routing, the all-pairs link
// predicate holds exactly when no full permutation blocks. The two sides
// are decided by independent engines — the flat-array Lemma-1 kernel and
// Sweep's delta engine over every permutation — so they must agree on
// every router and every ftree(n+m, r) with at most 8 hosts and
// 1 ≤ m ≤ n²+1. Every blocking verdict's witness must replay as contended
// through Check. n stops at 4: larger n fits 8 hosts only with r = 1, a
// single switch whose pairs are all switch-local, which n ≤ 4 already
// covers.
func TestLemma1MatchesExhaustiveSweep(t *testing.T) {
	type scheme struct {
		name string
		seed int64
	}
	schemes := []scheme{
		{"dest-mod", 0}, {"source-mod", 0}, {"dest-switch-mod", 0},
		{"random-fixed", 1}, {"random-fixed", 2}, {"random-fixed", 3},
		{"paper", 0}, {"paper-folded", 0},
	}
	cases, blocking := 0, 0
	for n := 1; n <= 4; n++ {
		for r := 1; n*r <= 8; r++ {
			for m := 1; m <= n*n+1; m++ {
				f := topology.NewFoldedClos(n, m, r)
				for _, sc := range schemes {
					name := fmt.Sprintf("%s(seed %d) on ftree(%d+%d, %d)", sc.name, sc.seed, n, m, r)
					rt, err := routing.NewFtreeRouter(f, sc.name, 0, sc.seed)
					if err != nil {
						if sc.name == "paper" && m < n*n {
							continue // the Theorem-3 routing needs m ≥ n²
						}
						t.Fatalf("%s: %v", name, err)
					}
					pr := rt.(routing.PairRouter)
					lemma, err := CheckLemma1AllPairs(pr, f.Ports())
					if err != nil {
						t.Fatalf("%s: Lemma 1: %v", name, err)
					}
					sweep := mustSweep(t, rt, f.Ports(), Spec{})
					if lemma.Nonblocking != sweep.Nonblocking() {
						t.Fatalf("%s: Lemma 1 says nonblocking=%v, exhaustive sweep says %v (blocked %d/%d)",
							name, lemma.Nonblocking, sweep.Nonblocking(), sweep.Blocked, sweep.Tested)
					}
					cases++
					if lemma.Nonblocking {
						continue
					}
					blocking++
					w, err := BlockingWitness(lemma, f.Ports())
					if err != nil {
						t.Fatalf("%s: witness: %v", name, err)
					}
					a, err := rt.Route(w)
					if err != nil {
						t.Fatalf("%s: routing witness %s: %v", name, w, err)
					}
					if !Check(a).HasContention() {
						t.Fatalf("%s: witness %s does not contend", name, w)
					}
				}
			}
		}
	}
	if blocking == 0 || blocking == cases {
		t.Fatalf("%d of %d cases blocking: the grid must exercise both verdicts", blocking, cases)
	}
	t.Logf("%d cases, %d blocking", cases, blocking)
}

// TestTheorem2DeterministicBlocks is the metamorphic form of Theorem 2:
// with r ≥ 2n+1 bottom switches and m < n² top switches, every single-path
// deterministic routing of ftree(n+m, r) blocks. Over every such fabric
// with n·r ≤ 12 (n = 2, r ∈ {5, 6}, m ∈ {1, 2, 3}; n = 1 has no m < n²
// and n ≥ 3 needs r ≥ 7), each deterministic scheme must be found
// BLOCKING by both independent engines — the Lemma-1 kernel and Sweep —
// and the sweep's first blocked pattern must replay as contended through
// Check.
func TestTheorem2DeterministicBlocks(t *testing.T) {
	type scheme struct {
		name string
		seed int64
	}
	schemes := []scheme{
		{"dest-mod", 0}, {"source-mod", 0}, {"dest-switch-mod", 0},
		{"random-fixed", 1}, {"random-fixed", 2}, {"random-fixed", 3},
		{"paper-folded", 0},
	}
	cases := 0
	for n := 1; n <= 12; n++ {
		for r := 2*n + 1; n*r <= 12; r++ {
			for m := 1; m < n*n; m++ {
				f := topology.NewFoldedClos(n, m, r)
				for _, sc := range schemes {
					name := fmt.Sprintf("%s(seed %d) on ftree(%d+%d, %d)", sc.name, sc.seed, n, m, r)
					rt, err := routing.NewFtreeRouter(f, sc.name, 0, sc.seed)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					lemma, err := CheckLemma1AllPairs(rt.(routing.PairRouter), f.Ports())
					if err != nil {
						t.Fatalf("%s: Lemma 1: %v", name, err)
					}
					if lemma.Nonblocking {
						t.Fatalf("%s: Lemma 1 says NONBLOCKING, Theorem 2 says it must block", name)
					}
					sweep := mustSweep(t, rt, f.Ports(), Spec{FirstBlocked: true})
					if sweep.Nonblocking() || sweep.FirstBlocked == nil {
						t.Fatalf("%s: sweep says NONBLOCKING (blocked %d of %d, route err %v)", name, sweep.Blocked, sweep.Tested, sweep.RouteErr)
					}
					a, err := rt.Route(sweep.FirstBlocked)
					if err != nil {
						t.Fatalf("%s: routing witness %s: %v", name, sweep.FirstBlocked, err)
					}
					if !Check(a).HasContention() {
						t.Fatalf("%s: sweep witness %s does not contend", name, sweep.FirstBlocked)
					}
					cases++
				}
			}
		}
	}
	if want := 2 * 3 * len(schemes); cases != want {
		t.Fatalf("%d cases, want %d (n = 2, r ∈ {5, 6}, m ∈ {1, 2, 3})", cases, want)
	}
}
