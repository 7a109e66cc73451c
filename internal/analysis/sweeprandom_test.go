package analysis

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestSweepRandomMatchesOracle compares SweepRandomCtx, whose engine
// newEngine picks from the trial count, with the same sweep forced onto
// the scratch Checker: counts, MaxLinkLoad, FirstBlocked and the routing
// error text must agree for every router, shape and trial count. The
// trial counts sit on both sides of the cost rule (a table only when
// hosts ≤ trials), and the test checks which engine each case got.
func TestSweepRandomMatchesOracle(t *testing.T) {
	ctx := context.Background()
	cases := 0
	for _, shape := range [][3]int{{2, 4, 3}, {2, 3, 3}, {3, 9, 4}, {2, 4, 8}, {4, 16, 5}} {
		f := topology.NewFoldedClos(shape[0], shape[1], shape[2])
		hosts := f.Ports()
		routers := []routing.Router{
			routing.NewPaperDeterministicFolded(f),
			routing.NewDestMod(f),
			routing.NewSourceMod(f),
			routing.NewFullSpray(f),
			routing.NewRandomFixed(f, 3),
		}
		if paper, err := routing.NewPaperDeterministic(f); err == nil {
			routers = append(routers, paper)
		}
		if adaptive, err := routing.NewNonblockingAdaptive(f); err == nil {
			routers = append(routers, adaptive)
		}
		if f.M > f.N*f.N {
			// A failed bottom switch detaches its hosts: every pair
			// touching one fails to route, so no table builds.
			view, err := topology.FailureSet{Bottoms: []int{1}}.View(f)
			if err != nil {
				t.Fatal(err)
			}
			spared, err := routing.NewSparedDeterministicView(f, view)
			if err != nil {
				t.Fatal(err)
			}
			routers = append(routers, spared)
		}
		for _, r := range routers {
			_, tableErr := routing.BuildRouteTable(r, hosts)
			for _, trials := range []int{hosts / 2, hosts, 2*hosts + 3} {
				for _, seed := range []int64{1, 29} {
					name := fmt.Sprintf("%s %s trials=%d seed=%d", f.Net.Name, r.Name(), trials, seed)
					if got, want := newEngine(r, hosts, trials).table != nil, tableErr == nil && hosts <= trials; got != want {
						t.Fatalf("%s: route table chosen = %v, want %v", name, got, want)
					}
					got, err := SweepRandomCtx(ctx, r, hosts, trials, seed)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := sweepRandom(ctx, oracleEngine(r, hosts), hosts, trials, seed)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					sameSweepResult(t, name, got, want)
					cases++
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}
