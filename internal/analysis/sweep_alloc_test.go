package analysis

import (
	"context"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Allocation pins for every sweep mode: a whole run's allocation count may
// depend on the host count (route table, per-shard enumerator state, one
// scorer per worker) but never on the number of patterns routed. Going
// from 7 to 8 hosts multiplies the patterns by eight (5040 → 40320), so
// the allowed growth — a small per-host budget — is far below the 35280
// extra allocations a per-pattern leak would add. The fixtures are nonblocking, so no run clones a
// witness, and the scratch fixture routes without allocating, so any
// growth belongs to the sweep.

// allocGrowthBudget bounds the extra allocations one more host may cost a
// whole sweep run.
const allocGrowthBudget = 10

// pinAllocs compares one run's allocations at small and large sizes.
func pinAllocs(t *testing.T, name string, small, large int, run func(size int)) {
	t.Helper()
	a := testing.AllocsPerRun(3, func() { run(small) })
	b := testing.AllocsPerRun(3, func() { run(large) })
	if b > a+allocGrowthBudget*float64(large-small) {
		t.Errorf("%s: %v allocs at size %d, %v at size %d: allocations grow with the pattern count", name, a, small, b, large)
	}
}

func TestSweepAllocsIndependentOfPatternCount(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	scratch := newReusingRouter(t, r, f.Net, f.Ports())
	ctx := context.Background()
	check := func(res *SweepResult, err error) {
		t.Helper()
		if err != nil || res.RouteErr != nil || res.Blocked != 0 {
			t.Fatalf("fixture must sweep cleanly and nonblocking: err=%v route=%v blocked=%d", err, res.RouteErr, res.Blocked)
		}
	}
	for _, v := range []struct {
		name string
		r    routing.Router
		spec Spec
	}{
		{"sequential", r, Spec{}},
		{"first-blocked", r, Spec{FirstBlocked: true}},
		{"parallel", r, Spec{Parallel: true, Workers: 2}},
		{"shard", r, Spec{Prefix: []int{1}}},
		{"shard/scratch", scratch, Spec{Prefix: []int{1}}},
	} {
		pinAllocs(t, v.name, 7, 8, func(h int) {
			res, _, err := Sweep(ctx, v.r, h, v.spec)
			check(res, err)
		})
	}
	pinAllocs(t, "oracle", 7, 8, func(h int) { check(oracleEngine(r, h).sweep(ctx, nil, true, false, nil)) })
}

// TestSweepSymAllocsIndependentOfPatternCount pins the orbit sweeps. The
// block symmetry needs whole switches of hosts, so the sizes are 6 and 8
// hosts: full spray over ftree(2+3, 3) and ftree(2+3, 4), equivariant
// and blocking, so each run also pays its one witness re-derivation. The
// orbit count grows from 34 to 182; the applicability gate's per-generator
// certificate accounts for the per-host growth.
func TestSweepSymAllocsIndependentOfPatternCount(t *testing.T) {
	ctx := context.Background()
	spray := map[int]routing.Router{
		6: routing.NewFullSpray(topology.NewFoldedClos(2, 3, 3)),
		8: routing.NewFullSpray(topology.NewFoldedClos(2, 3, 4)),
	}
	for _, v := range []struct {
		name string
		spec func(hosts int) Spec
	}{
		{"sym", func(int) Spec { return Spec{SymBlock: 2} }},
		{"sym-shard", func(h int) Spec {
			sym, err := permutation.NewBlockSymmetry(h, 2)
			if err != nil {
				t.Fatal(err)
			}
			return Spec{SymBlock: 2, SymShard: []int{0, sym.NecklaceCount()}}
		}},
	} {
		pinAllocs(t, v.name, 6, 8, func(h int) {
			res, stats, err := Sweep(ctx, spray[h], h, v.spec(h))
			if err != nil || !stats.Applied || res.Blocked == 0 {
				t.Fatalf("%s(%d hosts): err=%v applied=%v (%s) blocked=%d", v.name, h, err, stats.Applied, stats.Reason, res.Blocked)
			}
		})
	}
}

// reusingRouter routes pattern-dependently as far as the sweeps can tell —
// it implements only Route — but fills one reused Assignment from
// precomputed per-pair paths, so routing allocates nothing and any
// allocation growth belongs to the search itself.
type reusingRouter struct {
	hosts int
	paths [][]topology.Path // per pair s*hosts+d: its one-path set
	a     routing.Assignment
}

func newReusingRouter(t *testing.T, inner routing.PairRouter, net *topology.Network, hosts int) *reusingRouter {
	t.Helper()
	rr := &reusingRouter{hosts: hosts, paths: make([][]topology.Path, hosts*hosts)}
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			p, err := inner.PathFor(s, d)
			if err != nil {
				t.Fatal(err)
			}
			rr.paths[s*hosts+d] = []topology.Path{p}
		}
	}
	rr.a.Net = net
	return rr
}

func (r *reusingRouter) Name() string { return "reusing" }

func (r *reusingRouter) Route(p *permutation.Permutation) (*routing.Assignment, error) {
	r.a.Pairs, r.a.PathSets = r.a.Pairs[:0], r.a.PathSets[:0]
	for s := 0; s < p.N(); s++ {
		if d := p.Dst(s); d != permutation.Unused {
			r.a.Pairs = append(r.a.Pairs, permutation.Pair{Src: s, Dst: d})
			r.a.PathSets = append(r.a.PathSets, r.paths[s*r.hosts+d])
		}
	}
	return &r.a, nil
}

// TestWorstCaseSearchAllocsIndependentOfSteps pins the hill climb: a
// rejected step swaps back in place and an improvement is snapshotted
// into a reused buffer, so allocations do not grow with Steps — for the
// delta scorer over a route table and for the scratch scorer alike.
func TestWorstCaseSearchAllocsIndependentOfSteps(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 4) // m < n²: blocking, so the climb finds contention
	dm := routing.NewDestMod(f)
	for _, r := range []routing.Router{dm, newReusingRouter(t, dm, f.Net, f.Ports())} {
		measure := func(steps int) float64 {
			s := &WorstCaseSearch{Router: r, Hosts: f.Ports(), Restarts: 2, Steps: steps, Seed: 5}
			return testing.AllocsPerRun(3, func() {
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := measure(20), measure(400); large > small {
			t.Errorf("%s: %v allocs at 20 steps, %v at 400: allocations grow with Steps", r.Name(), small, large)
		}
	}
}
