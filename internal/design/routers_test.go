package design

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestRouterTablesMatchEngines guards the planner's router vocabularies
// against drift from the engines they name. Every ftreeConcreteRouters
// name must build through routing.NewFtreeRouter on ftree(2+4,5) and every
// mntRouters name through its constructor on FT(4,2); each router's
// PairRouter-ness must equal pairRouterNames, the table that tells the
// planner which routings runVerify decides exactly by Lemma 1 at any size.
// A mismatch would make the planner's dominance pruning unsound.
func TestRouterTablesMatchEngines(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	mt := topology.NewMPortNTree(4, 2)
	mntBuild := map[string]func() routing.Router{
		"mnt-dest-mod": func() routing.Router { return routing.NewMNTDestMod(mt) },
		"mnt-random":   func() routing.Router { return routing.NewMNTRandomFixed(mt, 1) },
	}
	built := map[string]routing.Router{}
	for name := range ftreeConcreteRouters {
		r, err := routing.NewFtreeRouter(f, name, 0, 1)
		if err != nil {
			t.Errorf("ftree router %q does not build: %v", name, err)
			continue
		}
		built[name] = r
	}
	for name := range mntRouters {
		b, ok := mntBuild[name]
		if !ok {
			t.Errorf("mnt router %q has no constructor in this test", name)
			continue
		}
		built[name] = b()
	}
	for name, r := range built {
		if _, pair := r.(routing.PairRouter); pair != pairRouterNames[name] {
			t.Errorf("router %q: PairRouter = %v, pairRouterNames says %v", name, pair, pairRouterNames[name])
		}
	}
	for name := range pairRouterNames {
		if !ftreeConcreteRouters[name] && !mntRouters[name] {
			t.Errorf("pairRouterNames lists %q, which no router table names", name)
		}
	}
}
