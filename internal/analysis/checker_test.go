package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// randomPartial draws a random partial permutation over n endpoints in
// which each endpoint sends with probability density.
func randomPartial(rng *rand.Rand, n int, density float64) *permutation.Permutation {
	p := permutation.New(n)
	permutation.RandomPartialInto(rng, p, density, &permutation.PatternScratch{})
	return p
}

// pathUnion is an oblivious multipath router built from two single-path
// routers on net: pair (s, d) may use either router's path (one path when
// they agree). It gives the engine tests a multipath scheme on networks
// that have no multipath router of their own.
type pathUnion struct {
	net  *topology.Network
	a, b routing.PairRouter
}

func (u pathUnion) Name() string { return u.a.Name() + "+" + u.b.Name() }

// AppendPairLinks appends the links of pathsFor's set.
func (u pathUnion) AppendPairLinks(s, d int, buf []topology.LinkID) ([]topology.LinkID, error) {
	ps, err := u.pathsFor(s, d)
	if err != nil {
		return buf, err
	}
	for _, p := range ps {
		buf = append(buf, p.Links...)
	}
	return buf, nil
}

func (u pathUnion) pathsFor(s, d int) ([]topology.Path, error) {
	pa, err := u.a.PathFor(s, d)
	if err != nil {
		return nil, err
	}
	pb, err := u.b.PathFor(s, d)
	if err != nil {
		return nil, err
	}
	if slices.Equal(pa.Links, pb.Links) {
		return []topology.Path{pa}, nil
	}
	return []topology.Path{pa, pb}, nil
}

func (u pathUnion) Route(p *permutation.Permutation) (*routing.Assignment, error) {
	pairs := p.Pairs()
	a := &routing.Assignment{Net: u.net, Pairs: pairs, PathSets: make([][]topology.Path, len(pairs))}
	for i, pr := range pairs {
		ps, err := u.pathsFor(pr.Src, pr.Dst)
		if err != nil {
			return nil, err
		}
		a.PathSets[i] = ps
	}
	return a, nil
}

// checkReference is the original map-based Check, kept verbatim as the
// behavioural oracle for the flat-array Checker: identical LinkPairs
// content, identical ascending Contended list, identical MaxLoad.
func checkReference(a *routing.Assignment) *Report {
	rep := &Report{Assignment: a, LinkPairs: make(map[topology.LinkID][]int)}
	for i, ps := range a.PathSets {
		seen := map[topology.LinkID]bool{}
		for _, p := range ps {
			for _, l := range p.Links {
				if !seen[l] {
					seen[l] = true
					rep.LinkPairs[l] = append(rep.LinkPairs[l], i)
				}
			}
		}
	}
	for l, pairs := range rep.LinkPairs {
		if len(pairs) > rep.MaxLoad {
			rep.MaxLoad = len(pairs)
		}
		if len(pairs) >= 2 {
			rep.Contended = append(rep.Contended, l)
		}
	}
	slices.Sort(rep.Contended)
	return rep
}

func reportsMatch(t *testing.T, name string, got, want *Report) {
	t.Helper()
	if got.MaxLoad != want.MaxLoad {
		t.Fatalf("%s: MaxLoad %d, want %d", name, got.MaxLoad, want.MaxLoad)
	}
	if !reflect.DeepEqual(got.Contended, want.Contended) {
		t.Fatalf("%s: Contended %v, want %v", name, got.Contended, want.Contended)
	}
	if !reflect.DeepEqual(got.LinkPairs, want.LinkPairs) {
		t.Fatalf("%s: LinkPairs mismatch\n got %v\nwant %v", name, got.LinkPairs, want.LinkPairs)
	}
}

// TestCheckerGoldenParity drives Check and a single reused Checker over a
// corpus of routed patterns — single-path and multipath routers, folded
// Clos and m-port n-tree, full and partial permutations, clean and
// contended — and demands byte-identical reports from the seed map-based
// implementation.
func TestCheckerGoldenParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	type routed struct {
		name string
		a    *routing.Assignment
	}
	var cases []routed
	add := func(r routing.Router, p *permutation.Permutation) {
		a, err := r.Route(p)
		if err != nil {
			t.Fatalf("%s on %s: %v", r.Name(), p, err)
		}
		cases = append(cases, routed{fmt.Sprintf("%s/%s", r.Name(), p), a})
	}

	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*permutation.Permutation{
		permutation.Identity(f.Ports()),
		permutation.SwitchShift(2, 3, 1),
		permutation.Random(rng, f.Ports()),
		randomPartial(rng, f.Ports(), 0.5),
		randomPartial(rng, f.Ports(), 0.1),
	} {
		for _, r := range []routing.Router{paper, routing.NewDestMod(f), routing.NewFullSpray(f)} {
			add(r, p)
		}
	}

	tr := topology.NewMPortNTree(4, 2)
	union := pathUnion{tr.Net, routing.NewMNTDestMod(tr), routing.NewMNTRandomFixed(tr, 11)}
	for _, p := range []*permutation.Permutation{
		permutation.Random(rng, tr.Hosts()),
		randomPartial(rng, tr.Hosts(), 0.4),
	} {
		for _, r := range []routing.Router{routing.NewMNTDestMod(tr), routing.NewMNTRandomFixed(tr, 5), union} {
			add(r, p)
		}
	}

	c := NewChecker(nil) // one scratch Checker reused across every case and both networks
	for _, tc := range cases {
		want := checkReference(tc.a)
		reportsMatch(t, tc.name+"/Check", Check(tc.a), want)
		c.Analyze(tc.a)
		reportsMatch(t, tc.name+"/Checker.Report", c.Report(), want)
		if c.MaxLoad() != want.MaxLoad {
			t.Fatalf("%s: Checker.MaxLoad %d, want %d", tc.name, c.MaxLoad(), want.MaxLoad)
		}
		if c.HasContention() != (len(want.Contended) > 0) {
			t.Fatalf("%s: HasContention %v", tc.name, c.HasContention())
		}
		if c.ContendedCount() != len(want.Contended) {
			t.Fatalf("%s: ContendedCount %d, want %d", tc.name, c.ContendedCount(), len(want.Contended))
		}
		got := append([]topology.LinkID(nil), c.ContendedLinks()...)
		if !reflect.DeepEqual(got, want.Contended) {
			t.Fatalf("%s: ContendedLinks %v, want %v", tc.name, got, want.Contended)
		}
		if len(c.LoadedLinks()) != len(want.LinkPairs) {
			t.Fatalf("%s: %d loaded links, want %d", tc.name, len(c.LoadedLinks()), len(want.LinkPairs))
		}
		for _, l := range c.LoadedLinks() {
			if !reflect.DeepEqual(c.PairsOn(l), want.LinkPairs[l]) {
				t.Fatalf("%s: PairsOn(%d) = %v, want %v", tc.name, l, c.PairsOn(l), want.LinkPairs[l])
			}
		}
	}
}

func TestCheckEmptyAssignment(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	a := &routing.Assignment{Net: f.Net}
	rep := Check(a)
	if rep.MaxLoad != 0 || rep.HasContention() || len(rep.LinkPairs) != 0 || rep.Contended != nil {
		t.Fatalf("empty assignment: %+v", rep)
	}
	c := NewChecker(f.Net)
	c.Analyze(a)
	if c.MaxLoad() != 0 || c.pairs != 0 || c.HasContention() || len(c.LoadedLinks()) != 0 {
		t.Fatal("empty assignment leaves Checker state dirty")
	}
	reportsMatch(t, "empty", c.Report(), checkReference(a))
}

// TestCheckerMultipathCountsOncePerPair pins the §IV.B accounting rule at
// the Checker level: a pair whose paths share links loads each shared link
// once, not once per path.
func TestCheckerMultipathCountsOncePerPair(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	p1 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 0)
	p2 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 1)
	a := &routing.Assignment{
		Net:      f.Net,
		Pairs:    []permutation.Pair{{Src: 0, Dst: 4}},
		PathSets: [][]topology.Path{{p1, p2}},
	}
	c := NewChecker(f.Net)
	c.Analyze(a)
	if c.MaxLoad() != 1 || c.HasContention() {
		t.Fatalf("single pair: MaxLoad=%d HasContention=%v", c.MaxLoad(), c.HasContention())
	}
	for _, l := range c.LoadedLinks() {
		if !reflect.DeepEqual(c.PairsOn(l), []int{0}) {
			t.Fatalf("link %d loaded %v, want [0]", l, c.PairsOn(l))
		}
	}
	reportsMatch(t, "multipath", c.Report(), checkReference(a))
}

// TestCheckerReportIndependence materializes Reports from a reused Checker
// and verifies later Analyze calls do not corrupt earlier Reports (no
// aliasing of scratch state).
func TestCheckerReportIndependence(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	destmod := routing.NewDestMod(f)
	rng := rand.New(rand.NewSource(3))
	c := NewChecker(nil)
	var reports, wants []*Report
	for i := 0; i < 5; i++ {
		p := permutation.Random(rng, f.Ports())
		a, err := destmod.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		c.Analyze(a)
		reports = append(reports, c.Report())
		wants = append(wants, checkReference(a))
	}
	for i := range reports {
		reportsMatch(t, fmt.Sprintf("report %d", i), reports[i], wants[i])
	}
}

// TestAnalyzePatternFastPathMatchesRoute verifies the PairLinkAppender
// fast path computes the same verdicts as Route+Check, and reports exactly
// the error Route would.
func TestAnalyzePatternFastPathMatchesRoute(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(paper).(routing.PairLinkAppender); !ok {
		t.Fatal("FtreeSinglePath must implement PairLinkAppender for the fast path")
	}
	rng := rand.New(rand.NewSource(9))
	c := NewChecker(nil)
	for i := 0; i < 4; i++ {
		p := permutation.Random(rng, f.Ports())
		if err := c.AnalyzePattern(paper, p); err != nil {
			t.Fatal(err)
		}
		a, err := paper.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		want := checkReference(a)
		if c.MaxLoad() != want.MaxLoad || c.HasContention() != (len(want.Contended) > 0) {
			t.Fatalf("fast path MaxLoad=%d HasContention=%v, want %d/%v",
				c.MaxLoad(), c.HasContention(), want.MaxLoad, len(want.Contended) > 0)
		}
		got := append([]topology.LinkID(nil), c.ContendedLinks()...)
		if !reflect.DeepEqual(got, want.Contended) {
			t.Fatalf("fast path ContendedLinks %v, want %v", got, want.Contended)
		}
	}
	// Error parity: an out-of-range trunk choice must surface through the
	// fast path with the exact message Route produces.
	bad := &routing.FtreeSinglePath{F: f, RouterName: "bad", TopChoice: func(s, d int) int { return 99 }}
	p := permutation.SwitchShift(2, 3, 1)
	errFast := c.AnalyzePattern(bad, p)
	_, errRoute := bad.Route(p)
	if errFast == nil || errRoute == nil {
		t.Fatalf("expected errors, got fast=%v route=%v", errFast, errRoute)
	}
	if errFast.Error() != errRoute.Error() {
		t.Fatalf("fast-path error %q differs from Route error %q", errFast, errRoute)
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// LoadedLinks returns every link carrying at least one pair, in first-touch
// order. The slice aliases Checker scratch: valid until the next analysis.
func (c *Checker) LoadedLinks() []topology.LinkID { return c.touched }

// PairsOn returns the indices of the pairs loading link l (empty when l is
// unloaded). The slice aliases Checker scratch: valid until the next
// analysis.
func (c *Checker) PairsOn(l topology.LinkID) []int {
	if int(l) >= len(c.linkPairs) {
		return nil
	}
	return c.linkPairs[l]
}
