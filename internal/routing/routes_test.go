package routing_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestRoutesValid is the route-validity bar for every scheme's one routing
// body. A pairwise router's AppendPairLinks must, on every pair (self-pairs
// and detached hosts included), either fail with the error Route reports
// for that pair or append exactly the links of Route's path set, each path
// a valid walk from the source's host to the destination's host. A
// pattern router's AppendPatternLinks spans must be exactly Route's paths,
// valid walks between each pair's hosts, or fail as Route fails.
//
// The routers are the TestRouterNames zoo and the campaign's pairwise
// fault schemes on failure sets SampleFailures draws over all four
// scenarios. The faulty fabric is small and the draws go up to the whole
// scenario domain, so every local-reroute failure mode — stuck at a bottom
// switch, visit budget exhausted, detached host — must occur.
func TestRoutesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, z := range routerZoo(t) {
		switch r := z.r.(type) {
		case routing.PairLinkAppender:
			checkPairRoutes(t, r, z.hosts, map[string]int{})
		case routing.PatternLinkAppender:
			for trial := 0; trial < 4; trial++ {
				checkPatternRoutes(t, r, permutation.Random(rng, z.hosts))
			}
		default:
			if name != "benes-looping" && name != "greedy-local" && name != "global-rearrangeable" {
				t.Errorf("%s has no link-appending body", name)
			}
		}
	}

	f := topology.NewFoldedClos(2, 5, 5)
	rng = rand.New(rand.NewSource(17))
	seen := map[string]int{}
	for _, sc := range []campaign.Scenario{campaign.ScenarioLinks, campaign.ScenarioTops, campaign.ScenarioTopsCorrelated, campaign.ScenarioPods} {
		dom, err := campaign.ScenarioDomain(sc, f.N, f.M, f.R)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= dom; k++ {
			for sample := 0; sample < 3; sample++ {
				fs, err := campaign.SampleFailures(f, sc, k, rng)
				if err != nil {
					t.Fatalf("%s k=%d: %v", sc, k, err)
				}
				view, err := fs.View(f)
				if err != nil {
					t.Fatalf("%s k=%d: %v", sc, k, err)
				}
				for _, scheme := range []string{campaign.SchemeLocal, campaign.SchemeSpared, campaign.SchemeNaive} {
					r, err := campaign.BuildRouter(f, scheme, view, 3)
					if err != nil {
						continue // spares exhausted or every class switch failed
					}
					checkPairRoutes(t, r.(routing.PairLinkAppender), f.Ports(), seen)
				}
			}
		}
	}
	for _, kind := range []string{"stuck at bottom switch", "exceeded", "detached host"} {
		if seen[kind] == 0 {
			t.Errorf("no %q failure observed (seen %v): the draws must exercise every error path", kind, seen)
		}
	}
}

// checkPairRoutes checks r's AppendPairLinks against Route on every one-pair
// pattern over hosts endpoints, counting the pair errors in errs by kind.
// A PairRouter's PathFor must carry the same links.
func checkPairRoutes(t *testing.T, r routing.PairLinkAppender, hosts int, errs map[string]int) {
	t.Helper()
	prefix := []topology.LinkID{99} // a prefix AppendPairLinks must keep
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			p, err := permutation.FromPairs(hosts, []permutation.Pair{{Src: s, Dst: d}})
			if err != nil {
				t.Fatal(err)
			}
			a, rerr := r.Route(p)
			links, lerr := r.AppendPairLinks(s, d, prefix[:1])
			if lerr != nil || rerr != nil {
				if lerr == nil || rerr == nil || rerr.Error() != fmt.Sprintf("routing pair %d->%d: %v", s, d, lerr) {
					t.Fatalf("%s %d->%d: AppendPairLinks error %v, Route error %v", r.Name(), s, d, lerr, rerr)
				}
				errs[errKind(lerr)]++
				continue
			}
			if links[0] != 99 {
				t.Fatalf("%s %d->%d: AppendPairLinks overwrote the buffer's prefix: %v", r.Name(), s, d, links)
			}
			if got, want := links[1:], validLinks(t, r.Name(), a.Net, a.Pairs[0], a.PathSets[0]); !slices.Equal(got, want) {
				t.Fatalf("%s %d->%d: AppendPairLinks %v, Route's paths %v", r.Name(), s, d, got, want)
			}
			if pr, ok := r.(routing.PairRouter); ok {
				if path, err := pr.PathFor(s, d); err != nil || !slices.Equal(path.Links, links[1:]) {
					t.Fatalf("%s %d->%d: PathFor %v (err %v), AppendPairLinks %v", r.Name(), s, d, path.Links, err, links[1:])
				}
			}
		}
	}
}

// checkPatternRoutes checks r's AppendPatternLinks spans against Route on p.
func checkPatternRoutes(t *testing.T, r routing.PatternLinkAppender, p *permutation.Permutation) {
	t.Helper()
	a, rerr := r.Route(p)
	links, ends, lerr := r.AppendPatternLinks(p, nil, nil)
	if lerr != nil || rerr != nil {
		if fmt.Sprint(lerr) != fmt.Sprint(rerr) {
			t.Fatalf("%s on %s: AppendPatternLinks error %v, Route error %v", r.Name(), p, lerr, rerr)
		}
		return
	}
	if len(ends) != len(a.Pairs) {
		t.Fatalf("%s on %s: %d spans for %d pairs", r.Name(), p, len(ends), len(a.Pairs))
	}
	lo := 0
	for i, hi := range ends {
		if got, want := links[lo:hi], validLinks(t, r.Name(), a.Net, a.Pairs[i], a.PathSets[i]); !slices.Equal(got, want) {
			t.Fatalf("%s on %s: pair %v span %v, Route's paths %v", r.Name(), p, a.Pairs[i], got, want)
		}
		lo = hi
	}
}

// validLinks checks that ps is a non-empty path set of valid walks from
// pr's source host to its destination host (empty for a self-pair) and
// returns their links back to back. Host index i is node i in every
// network a pairwise or pattern router routes on.
func validLinks(t *testing.T, name string, net *topology.Network, pr permutation.Pair, ps []topology.Path) []topology.LinkID {
	t.Helper()
	if len(ps) == 0 {
		t.Fatalf("%s %v: no paths", name, pr)
	}
	var links []topology.LinkID
	for _, path := range ps {
		if !path.Valid(net) {
			t.Fatalf("%s %v: invalid path %v", name, pr, path.Links)
		}
		if pr.Src == pr.Dst {
			if path.Len() != 0 {
				t.Fatalf("%s %v: self-pair path %v", name, pr, path.Links)
			}
			continue
		}
		if path.Len() == 0 || net.Link(path.Links[0]).From != topology.NodeID(pr.Src) ||
			net.Link(path.Links[path.Len()-1]).To != topology.NodeID(pr.Dst) {
			t.Fatalf("%s %v: path %v does not run from host to host", name, pr, path.Links)
		}
		links = append(links, path.Links...)
	}
	return links
}

// errKind classifies a pairwise routing error by its message.
func errKind(err error) string {
	for _, kind := range []string{"stuck at bottom switch", "stuck at top switch", "exceeded", "detached host"} {
		if strings.Contains(err.Error(), kind) {
			return kind
		}
	}
	return err.Error()
}
