package design_test

import (
	"context"
	"testing"

	"repro/internal/api"
	"repro/internal/design"
	"repro/internal/store"
)

// fuzzRouters is every router name a catalog may list. The order matters
// to the frontier's tie handling: routers listed first enumerate first.
var fuzzRouters = []string{
	"adaptive", "deterministic", "paper", "paper-folded", "dest-mod", "source-mod",
	"dest-switch-mod", "random-fixed", "greedy-local", "global", "spray",
	"mnt-dest-mod", "mnt-random",
}

// closedFormStub is cmd/nbbench's probe stub: nonblocking exactly when
// m ≥ n·r (the verified dest-mod truth), so plans are fast and
// deterministic while every tier-1 and tier-2 path still runs.
func closedFormStub(_ context.Context, q *api.Request) (*api.VerifyReport, error) {
	rep := &api.VerifyReport{Method: "lemma1-exact", Exact: true, Verdict: "blocking"}
	if q.M >= q.N*q.R {
		rep.Verdict = "nonblocking"
	}
	return rep, nil
}

// fuzzRange maps two fuzz bytes to an axis range inside [lo, hi] spanning
// at most span values.
func fuzzRange(start, length uint8, lo, hi, span int) *api.DesignRange {
	a := lo + int(start)%(hi-lo+1)
	b := min(a+int(length)%span, hi)
	return &api.DesignRange{Min: a, Max: b}
}

// FuzzPlanCatalog plans small catalogs — any subset of the families and
// routers, axes clamped so the grid stays near 2,000 candidates — with the
// closed-form stub verifier, and checks the report's invariants: the tiers
// cover every candidate, the frontier is cost-ascending with no point
// dominating another, every frontier certificate replays, and turning
// pruning off leaves the frontier unchanged.
func FuzzPlanCatalog(f *testing.F) {
	f.Add(uint8(0xf), uint16(0x1fff), uint8(1), uint8(2), uint8(1), uint8(5), uint8(0), uint8(7), uint8(2), uint8(4), uint8(0), uint8(2), uint8(0), uint8(18), uint8(7))
	// adaptive and deterministic at ftree(3+9, 3): equal cost and hosts,
	// the later-listed router at a higher level.
	f.Add(uint8(0x1), uint16(0x3), uint8(2), uint8(0), uint8(1), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(0x5), uint16(0x1ff0), uint8(1), uint8(1), uint8(0), uint8(3), uint8(0), uint8(7), uint8(2), uint8(5), uint8(0), uint8(1), uint8(4), uint8(40), uint8(9))
	f.Fuzz(func(t *testing.T, fams uint8, routers uint16, nMin, nLen, rMin, rLen, mMin, mLen, pMin, pLen, lMin, lLen, minHosts, maxHosts, maxExh uint8) {
		cat := &api.DesignCatalog{
			N:        fuzzRange(nMin, nLen, 1, 8, 3),
			R:        fuzzRange(rMin, rLen, 2, 24, 6),
			M:        fuzzRange(mMin, mLen, 1, 40, 8),
			Ports:    fuzzRange(pMin, pLen, 2, 32, 6),
			Levels:   fuzzRange(lMin, lLen, 2, 5, 3),
			MinHosts: int(minHosts) % 64,
			Verify:   &api.DesignVerify{MaxHosts: int(maxHosts) % 65, MaxExhaustive: int(maxExh) % 11, Trials: 20},
		}
		for i, fam := range []string{"ftree", "xgft", "mnt", "multilevel"} {
			if fams&(1<<i) != 0 {
				cat.Families = append(cat.Families, fam)
			}
		}
		if len(cat.Families) == 0 {
			cat.Families = []string{"ftree"}
		}
		for i, rt := range fuzzRouters {
			if routers&(1<<i) != 0 {
				cat.Routers = append(cat.Routers, rt)
			}
		}
		plan := func(noPrune bool) *api.DesignReport {
			memo := store.NewMemory(256)
			defer memo.Close()
			rep, err := design.Plan(context.Background(), cat, design.Options{Verify: closedFormStub, Memo: memo, NoPrune: noPrune})
			if err != nil {
				t.Fatalf("Plan(no_prune=%v): %v", noPrune, err)
			}
			return rep
		}
		rep := plan(false)
		if rep.Tier0+rep.Tier1+rep.Tier2 != rep.Candidates {
			t.Fatalf("tier counts %d+%d+%d do not cover %d candidates", rep.Tier0, rep.Tier1, rep.Tier2, rep.Candidates)
		}
		fr := rep.Frontier
		for i := range fr {
			if i > 0 && fr[i].CostPerPort < fr[i-1].CostPerPort {
				t.Errorf("frontier[%d] %s costs %v, below frontier[%d] %s at %v", i, fr[i].Name, fr[i].CostPerPort, i-1, fr[i-1].Name, fr[i-1].CostPerPort)
			}
			for j := range fr {
				a, b := &fr[i], &fr[j]
				if i != j && a.CostPerPort <= b.CostPerPort && a.Hosts >= b.Hosts && a.Level >= b.Level {
					t.Errorf("frontier point %s (cost %v, %d hosts, level %d) dominates %s (cost %v, %d hosts, level %d)",
						a.Name, a.CostPerPort, a.Hosts, a.Level, b.Name, b.CostPerPort, b.Hosts, b.Level)
				}
			}
			if err := design.ReplayCondition(&fr[i]); err != nil {
				t.Error(err)
			}
		}
		exhaustive := plan(true).Frontier
		if len(exhaustive) != len(fr) {
			t.Fatalf("no-prune frontier has %d points, pruned %d", len(exhaustive), len(fr))
		}
		for i := range fr {
			p, q := &fr[i], &exhaustive[i]
			if p.Name != q.Name || p.Level != q.Level || p.CostPerPort != q.CostPerPort || p.Hosts != q.Hosts {
				t.Errorf("frontier[%d]: pruned %s (level %d), no-prune %s (level %d)", i, p.Name, p.Level, q.Name, q.Level)
			}
		}
	})
}
