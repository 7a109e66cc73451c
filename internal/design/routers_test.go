package design

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/routing"
	"repro/internal/topology"
)

type catalogRouter struct {
	r     routing.Router
	hosts int
}

// catalogRouters builds every concrete router the planner's catalog
// accepts: each ftreeConcreteRouters name through routing.NewFtreeRouter
// on ftree(2+4,5) and each mntRouters name through its constructor on
// FT(4,2), with its host count. A name that does not build is a test
// error.
func catalogRouters(t *testing.T) map[string]catalogRouter {
	t.Helper()
	f := topology.NewFoldedClos(2, 4, 5)
	mt := topology.NewMPortNTree(4, 2)
	mntBuild := map[string]func() routing.Router{
		"mnt-dest-mod": func() routing.Router { return routing.NewMNTDestMod(mt) },
		"mnt-random":   func() routing.Router { return routing.NewMNTRandomFixed(mt, 1) },
	}
	built := map[string]catalogRouter{}
	for name := range ftreeConcreteRouters {
		r, err := routing.NewFtreeRouter(f, name, 0, 1)
		if err != nil {
			t.Errorf("ftree router %q does not build: %v", name, err)
			continue
		}
		built[name] = catalogRouter{r, f.Ports()}
	}
	for name := range mntRouters {
		b, ok := mntBuild[name]
		if !ok {
			t.Errorf("mnt router %q has no constructor in this test", name)
			continue
		}
		built[name] = catalogRouter{b(), mt.Hosts()}
	}
	return built
}

// TestRouterTablesMatchEngines guards the planner's router vocabularies
// against drift from the engines they name. Every catalog router must
// build, and each router's PairRouter-ness must equal pairRouterNames.
func TestRouterTablesMatchEngines(t *testing.T) {
	for name, c := range catalogRouters(t) {
		if _, pair := c.r.(routing.PairRouter); pair != pairRouterNames[name] {
			t.Errorf("router %q: PairRouter = %v, pairRouterNames says %v", name, pair, pairRouterNames[name])
		}
	}
	for name := range pairRouterNames {
		if !ftreeConcreteRouters[name] && !mntRouters[name] {
			t.Errorf("pairRouterNames lists %q, which no router table names", name)
		}
	}
}

// TestPairRouterNamesMatchDecide guards the planner's copy of the verify
// rule: pairRouterNames tells the planner which routings mode auto decides
// exactly by Lemma 1 at any size, and analysis.Decide is the rule itself.
// With no exhaustive budget, a router takes the Lemma-1 rung exactly when
// pairRouterNames lists it; otherwise the planner's dominance pruning
// would trust a sampled verdict, or distrust an exact one.
func TestPairRouterNamesMatchDecide(t *testing.T) {
	for name, c := range catalogRouters(t) {
		d, err := analysis.Decide(context.Background(), c.r, c.hosts, analysis.DecideSpec{Trials: 1})
		if err != nil {
			t.Errorf("router %q: Decide: %v", name, err)
			continue
		}
		if (d.Rung == analysis.RungLemma1) != pairRouterNames[name] {
			t.Errorf("router %q: Decide took rung %d, pairRouterNames says %v", name, d.Rung, pairRouterNames[name])
		}
	}
}
