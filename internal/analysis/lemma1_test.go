package analysis

import (
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// OneSourceOrOneDest reports the Lemma-1 predicate for this link: all
// pairs share a source, or all share a destination.
func (v *LinkSDView) OneSourceOrOneDest() bool {
	return len(v.Sources) <= 1 || len(v.Dests) <= 1
}

// lemma1Oracle decides Lemma 1 from the full per-link grouping: nonblocking
// iff every view satisfies the predicate, violation = the lowest-ID view
// that does not. The flat-array kernel must reproduce it exactly.
func lemma1Oracle(r routing.PairRouter, hosts int) (*Lemma1Result, error) {
	views, err := LinkViews(r, hosts)
	if err != nil {
		return nil, err
	}
	res := &Lemma1Result{Nonblocking: true}
	for _, v := range views {
		if !v.OneSourceOrOneDest() && (res.Violation == nil || v.Link < res.Violation.Link) {
			res.Nonblocking = false
			res.Violation = v
		}
	}
	return res, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// assertLemma1Parity checks the sequential and parallel kernels against
// the oracle: error text, verdict, the Violation view (pairs, sources and
// destinations in order) and the blocking witness.
func assertLemma1Parity(t *testing.T, r routing.PairRouter, hosts int) {
	t.Helper()
	want, wantErr := lemma1Oracle(r, hosts)
	check := func(label string, got *Lemma1Result, err error) {
		t.Helper()
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s %s: error %q, want %q", r.Name(), label, errText(err), errText(wantErr))
		}
		if wantErr != nil {
			return
		}
		if got.Nonblocking != want.Nonblocking || !reflect.DeepEqual(got.Violation, want.Violation) {
			t.Fatalf("%s %s: got (%v, %+v), want (%v, %+v)",
				r.Name(), label, got.Nonblocking, got.Violation, want.Nonblocking, want.Violation)
		}
		if want.Nonblocking {
			return
		}
		gw, gerr := BlockingWitness(got, hosts)
		ww, werr := BlockingWitness(want, hosts)
		if gerr != nil || werr != nil || gw.String() != ww.String() {
			t.Fatalf("%s %s: witness %v (%v), want %v (%v)", r.Name(), label, gw, gerr, ww, werr)
		}
	}
	got, err := CheckLemma1AllPairs(r, hosts)
	check("kernel", got, err)
}

// pathForOnly hides a router's AppendPairLinks, forcing the kernel onto
// its PathFor fallback.
type pathForOnly struct{ routing.PairRouter }

// ftreeZoo lists the single-path ftree routers defined on f, including the
// fault-aware ones on a small failure set and a TopChoice that fails for
// sources ≥ 4.
func ftreeZoo(t *testing.T, f *topology.FoldedClos) []routing.PairRouter {
	t.Helper()
	rs := []routing.PairRouter{
		routing.NewPaperDeterministicFolded(f),
		routing.NewDestMod(f),
		routing.NewSourceMod(f),
		routing.NewDestSwitchMod(f),
		routing.NewRandomFixed(f, 3),
		&routing.FtreeSinglePath{F: f, RouterName: "broke", TopChoice: func(s, d int) int {
			if s >= 4 {
				return 99
			}
			return 0
		}},
	}
	if paper, err := routing.NewPaperDeterministic(f); err == nil {
		rs = append(rs, paper)
	}
	oneTop := func(top int) *topology.FailureView {
		view, err := topology.FailureSet{Tops: []int{top}}.View(f)
		if err != nil {
			t.Fatal(err)
		}
		return view
	}
	if nr, err := routing.NewNaiveRemapView(f, oneTop(1)); err == nil {
		rs = append(rs, nr)
	}
	if sp, err := routing.NewSparedDeterministicView(f, oneTop(0)); err == nil {
		rs = append(rs, sp)
	}
	rs = append(rs, routing.NewLocalReroute(f, nil, 1))
	// Trunk failures make LocalReroute bounce, and its paths may revisit
	// a link; a failed bottom switch makes every router below error.
	for _, fs := range []topology.FailureSet{
		{Trunks: []topology.Trunk{{Bottom: 0, Top: 0}, {Bottom: 1, Top: 1}, {Bottom: 2, Top: 0}}},
		{Bottoms: []int{1}},
	} {
		view, err := fs.View(f)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, routing.NewLocalReroute(f, view, 5))
		if nr, err := routing.NewNaiveRemapView(f, view); err == nil {
			rs = append(rs, nr)
		}
		if sp, err := routing.NewSparedDeterministicView(f, view); err == nil {
			rs = append(rs, sp)
		}
	}
	return rs
}

func TestLemma1KernelMatchesLinkViewsFtreeZoo(t *testing.T) {
	// m ≥ n², m < n², and spare-provisioned shapes.
	for _, c := range []struct{ n, m, r int }{{2, 4, 3}, {2, 3, 5}, {2, 6, 4}, {3, 5, 4}, {3, 11, 3}, {4, 16, 5}} {
		f := topology.NewFoldedClos(c.n, c.m, c.r)
		for _, r := range ftreeZoo(t, f) {
			assertLemma1Parity(t, r, f.Ports())
			assertLemma1Parity(t, pathForOnly{r}, f.Ports())
		}
	}
}

func TestLemma1KernelMatchesLinkViewsOtherFamilies(t *testing.T) {
	for _, c := range [][2]int{{4, 2}, {6, 2}, {4, 3}} {
		tr := topology.NewMPortNTree(c[0], c[1])
		assertLemma1Parity(t, routing.NewMNTDestMod(tr), tr.Hosts())
		assertLemma1Parity(t, routing.NewMNTRandomFixed(tr, 9), tr.Hosts())
	}
	tl := topology.NewThreeLevelFtree(2, 12)
	assertLemma1Parity(t, routing.NewThreeLevelPaper(tl), tl.Ports())
	ml := topology.NewMultiFtree(2, 3)
	assertLemma1Parity(t, routing.NewMultiLevelPaper(ml), ml.Ports())
}

// tamperedRouter rewrites every pair's link stream, through both
// AppendPairLinks and PathFor.
type tamperedRouter struct {
	*routing.FtreeSinglePath
	tamper func(s, d int, links []topology.LinkID) []topology.LinkID
}

func (r tamperedRouter) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	n := len(buf)
	buf, err := r.FtreeSinglePath.AppendPairLinks(src, dst, buf)
	return append(buf[:n], r.tamper(src, dst, buf[n:])...), err
}

func (r tamperedRouter) PathFor(src, dst int) (topology.Path, error) {
	p, err := r.FtreeSinglePath.PathFor(src, dst)
	p.Links = r.tamper(src, dst, p.Links)
	return p, err
}

// TestLemma1ViolationKeepsRepeatedLinks pins the one-entry-per-occurrence
// rule of LinkSDView.Pairs: a path crossing the violated link twice lists
// its pair twice, in the kernel's view as in LinkViews.
func TestLemma1ViolationKeepsRepeatedLinks(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	twice := tamperedRouter{routing.NewDestMod(f), func(_, _ int, links []topology.LinkID) []topology.LinkID {
		return append(append([]topology.LinkID(nil), links...), links...)
	}}
	for _, r := range []routing.PairRouter{twice, pathForOnly{twice}} {
		assertLemma1Parity(t, r, f.Ports())
		res, err := CheckLemma1AllPairs(r, f.Ports())
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Violation; v == nil || len(v.Pairs) < 2 || v.Pairs[0] != v.Pairs[1] {
			t.Fatalf("violation %+v: want each pair listed twice", v)
		}
	}
}

// TestCheckLemma1AllPairsRejectsNegativeLinkID is the regression test for a
// user-supplied router emitting a negative link ID: the flat kernel must
// report it as an error, never index its state arrays with it.
func TestCheckLemma1AllPairsRejectsNegativeLinkID(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	const want = "analysis: routing pair 1->2: invalid link id -1"
	neg := tamperedRouter{routing.NewDestMod(f), func(s, d int, links []topology.LinkID) []topology.LinkID {
		if s == 1 && d == 2 {
			return append(links, -1)
		}
		return links
	}}
	for _, r := range []routing.PairRouter{neg, pathForOnly{neg}} {
		if _, err := CheckLemma1AllPairs(r, f.Ports()); errText(err) != want {
			t.Fatalf("sequential: error %q, want %q", errText(err), want)
		}
		if _, err := WorstCasePermutationFor(r, f.Ports(), 0); errText(err) != want {
			t.Fatalf("WorstCasePermutationFor: error %q, want %q", errText(err), want)
		}
	}
}

// TestCheckLemma1AllPairsAllocs pins the flat kernel's allocation profile:
// fewer allocations per call than hosts, i.e. nothing per SD pair or per
// (pair, link), on a nonblocking and a blocking routing at Table-I and
// 512-host scale.
func TestCheckLemma1AllPairsAllocs(t *testing.T) {
	for _, c := range []struct{ n, m, r int }{{4, 16, 20}, {8, 64, 64}} {
		f := topology.NewFoldedClos(c.n, c.m, c.r)
		paper, err := routing.NewPaperDeterministic(f)
		if err != nil {
			t.Fatal(err)
		}
		hosts := f.Ports()
		for _, r := range []routing.PairRouter{paper, routing.NewDestMod(f)} {
			allocs := testing.AllocsPerRun(2, func() {
				if _, err := CheckLemma1AllPairs(r, hosts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs >= float64(hosts) {
				t.Errorf("%s on %s: %.0f allocs per call, want < %d hosts", r.Name(), f.Net.Name, allocs, hosts)
			}
		}
	}
}

// FuzzLemma1Parity checks the flat-array kernel against the LinkViews oracle on fuzz-chosen ftree shapes under
// random-fixed routing.
func FuzzLemma1Parity(f *testing.F) {
	f.Add(2, 4, 3, int64(1))
	f.Add(2, 3, 5, int64(7))
	f.Add(3, 5, 4, int64(2))
	f.Add(1, 1, 2, int64(0))
	f.Fuzz(func(t *testing.T, n, m, r int, seed int64) {
		if n < 1 || n > 4 || m < 1 || m > 12 || r < 1 || r > 6 {
			t.Skip()
		}
		ft := topology.NewFoldedClos(n, m, r)
		assertLemma1Parity(t, routing.NewRandomFixed(ft, seed), ft.Ports())
	})
}
