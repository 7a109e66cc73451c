package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// sampledViews draws failure sets of every size k of scenario sc on f, a
// few samples per k, and returns their views.
func sampledViews(t *testing.T, f *topology.FoldedClos, sc Scenario, samples int, rng *rand.Rand) []*topology.FailureView {
	t.Helper()
	dom, err := ScenarioDomain(sc, f.N, f.M, f.R)
	if err != nil {
		t.Fatal(err)
	}
	var views []*topology.FailureView
	for k := 0; k <= dom; k++ {
		for s := 0; s < samples; s++ {
			fs, err := SampleFailures(f, sc, k, rng)
			if err != nil {
				t.Fatalf("%s k=%d: %v", sc, k, err)
			}
			view, err := fs.View(f)
			if err != nil {
				t.Fatalf("%s k=%d: %v", sc, k, err)
			}
			views = append(views, view)
		}
	}
	return views
}

// TestPairLinksMatchPathFor is the parity bar for the pairwise fault
// routers' link-only paths: on every pair (self-pairs and detached hosts
// included) of every failure set SampleFailures draws over all four
// scenarios, AppendPairLinks must return exactly PathFor's links, or fail
// with exactly PathFor's error. The fabric is small and the draws go up to
// the whole scenario domain, so every local-reroute failure mode — stuck
// at a bottom switch, visit budget exhausted, detached host — must occur.
func TestPairLinksMatchPathFor(t *testing.T) {
	f := topology.NewFoldedClos(2, 5, 5)
	rng := rand.New(rand.NewSource(17))
	seen := map[string]int{}
	for _, sc := range Scenarios() {
		for _, view := range sampledViews(t, f, sc, 3, rng) {
			for _, scheme := range []string{SchemeLocal, SchemeSpared, SchemeNaive} {
				r, err := BuildRouter(f, scheme, view, 3)
				if err != nil {
					continue // spares exhausted or every class switch failed
				}
				pr := r.(routing.PairRouter)
				la, ok := r.(routing.PairLinkAppender)
				if !ok {
					t.Fatalf("%s does not implement PairLinkAppender", scheme)
				}
				buf := []topology.LinkID{99} // a prefix AppendPairLinks must keep
				for s := 0; s < f.Ports(); s++ {
					for d := 0; d < f.Ports(); d++ {
						path, perr := pr.PathFor(s, d)
						got, aerr := la.AppendPairLinks(s, d, buf[:1])
						if fmt.Sprint(perr) != fmt.Sprint(aerr) {
							t.Fatalf("%s/%s %d->%d: PathFor error %v, AppendPairLinks error %v", sc, scheme, s, d, perr, aerr)
						}
						if perr != nil {
							seen[errKind(perr)]++
							continue
						}
						if got[0] != 99 || !slices.Equal(got[1:], path.Links) {
							t.Fatalf("%s/%s %d->%d: AppendPairLinks %v, PathFor links %v", sc, scheme, s, d, got, path.Links)
						}
					}
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

// errKind classifies a pairwise routing error by its message.
func errKind(err error) string {
	for _, kind := range []string{"stuck at bottom switch", "stuck at top switch", "exceeded", "detached host"} {
		if strings.Contains(err.Error(), kind) {
			return kind
		}
	}
	return err.Error()
}

// TestAdaptivePatternLinksMatchRoute is the parity bar for the adaptive
// routers' Assignment-free scoring: AnalyzePattern must report what
// Analyze(Route(p)) reports — the same per-link pairs, contended links and
// max load, or exactly Route's error. Patterns are full and partial
// permutations over all hosts, so detached endpoints occur under pod
// failures, and over surviving hosts; the fabrics include one whose m
// holds a single configuration, so demand overflow occurs too.
func TestAdaptivePatternLinksMatchRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	errs := map[string]int{}
	for _, f := range []*topology.FoldedClos{topology.NewFoldedClos(2, 8, 4), topology.NewFoldedClos(3, 9, 6)} {
		pristine, err := routing.NewNonblockingAdaptive(f)
		if err != nil {
			t.Fatal(err)
		}
		fast, slow := analysis.NewChecker(f.Net), analysis.NewChecker(f.Net)
		p := permutation.New(f.Ports())
		var sc permutation.PatternScratch
		for _, scen := range Scenarios() {
			for _, view := range sampledViews(t, f, scen, 2, rng) {
				avoiding, err := BuildRouter(f, SchemeAvoiding, view, 0)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 12; trial++ {
					switch trial % 3 {
					case 0:
						permutation.RandomInto(rng, p)
					case 1:
						permutation.RandomPartialInto(rng, p, 0.6, &sc)
					default:
						permutation.RandomAmongInto(rng, p, view.AliveHosts(), &sc)
					}
					for _, r := range []routing.Router{avoiding, pristine} {
						if _, ok := r.(routing.PatternLinkAppender); !ok {
							t.Fatalf("%s does not implement PatternLinkAppender", r.Name())
						}
						ferr := fast.AnalyzePattern(r, p)
						a, serr := r.Route(p)
						if fmt.Sprint(ferr) != fmt.Sprint(serr) {
							t.Fatalf("%s on %s: AnalyzePattern error %v, Route error %v", r.Name(), p, ferr, serr)
						}
						if serr != nil {
							errs[strings.SplitN(serr.Error(), " ", 3)[1]]++
							continue
						}
						slow.Analyze(a)
						got, want := fast.Report(), slow.Report()
						if got.MaxLoad != want.MaxLoad || !reflect.DeepEqual(got.LinkPairs, want.LinkPairs) ||
							!slices.Equal(got.Contended, want.Contended) {
							t.Fatalf("%s on %s: AnalyzePattern max %d contended %v; Analyze(Route) max %d contended %v",
								r.Name(), p, got.MaxLoad, got.Contended, want.MaxLoad, want.Contended)
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"pair", "pattern"} {
		if errs[kind] == 0 {
			t.Errorf("no %q routing error observed (seen %v): the patterns must exercise both", kind, errs)
		}
	}
}
