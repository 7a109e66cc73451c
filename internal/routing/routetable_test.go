package routing_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// dedupedPairLinks is the test oracle for one table entry: the pair's
// direct AppendPairLinks output with duplicates removed, first occurrence
// kept — exactly what BuildRouteTable promises to store.
func dedupedPairLinks(t *testing.T, r routing.PairLinkAppender, s, d int) []topology.LinkID {
	t.Helper()
	raw, err := r.AppendPairLinks(s, d, nil)
	if err != nil {
		t.Fatalf("AppendPairLinks(%d,%d): %v", s, d, err)
	}
	seen := map[topology.LinkID]bool{}
	var out []topology.LinkID
	for _, l := range raw {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func sameLinks(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildRouteTableMatchesAppendPairLinks(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	single, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	spray, err := routing.NewKSpray(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []routing.PairLinkAppender{single, spray, routing.NewFullSpray(f), routing.NewDestMod(f)} {
		tab, err := routing.BuildRouteTable(r, f.Ports())
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if tab.Hosts() != f.Ports() || tab.RouterName() != r.Name() {
			t.Fatalf("%s: hosts=%d name=%q", r.Name(), tab.Hosts(), tab.RouterName())
		}
		if tab.NumLinks() <= 0 || tab.NumLinks() > f.Net.NumLinks() {
			t.Fatalf("%s: NumLinks %d outside (0,%d]", r.Name(), tab.NumLinks(), f.Net.NumLinks())
		}
		entries := 0
		for s := 0; s < f.Ports(); s++ {
			for d := 0; d < f.Ports(); d++ {
				want := dedupedPairLinks(t, r, s, d)
				got := tab.PairLinks(s, d)
				if !sameLinks(got, want) {
					t.Fatalf("%s pair %d->%d: table %v, direct %v", r.Name(), s, d, got, want)
				}
				if s == d && len(got) != 0 {
					t.Fatalf("%s: self-pair %d loaded links %v", r.Name(), s, got)
				}
				entries += len(got)
			}
		}
		if tab.Entries() != entries {
			t.Fatalf("%s: Entries %d, want %d", r.Name(), tab.Entries(), entries)
		}
	}
}

// TestBuildRouteTableMultipathDedups pins the §IV.B dedup: a multipath
// pair's span must load the shared host links once even though every path
// of the set repeats them in the raw link stream.
func TestBuildRouteTableMultipathDedups(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r := routing.NewFullSpray(f)
	tab, err := routing.BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	// Cross-switch pair 0->2: 4 top switches × 4 links raw, but only
	// 2 + 2·4 distinct (host up/down shared by all paths).
	raw, err := r.AppendPairLinks(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 16 {
		t.Fatalf("raw stream %d links, want 16", len(raw))
	}
	span := tab.PairLinks(0, 2)
	if len(span) != 10 {
		t.Fatalf("deduped span %d links, want 10", len(span))
	}
	uniq := map[topology.LinkID]bool{}
	for _, l := range span {
		if uniq[l] {
			t.Fatalf("span repeats link %d", l)
		}
		uniq[l] = true
	}
}

// TestBuildRouteTablePairRouterFallback covers the PathFor-only build:
// m-port n-tree routers implement only PairRouter, so the table is built
// from materialized paths.
func TestBuildRouteTablePairRouterFallback(t *testing.T) {
	tr := topology.NewMPortNTree(4, 2)
	r := routing.NewMNTDestMod(tr)
	tab, err := routing.BuildRouteTable(r, tr.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tr.Hosts(); s++ {
		for d := 0; d < tr.Hosts(); d++ {
			if s == d {
				if len(tab.PairLinks(s, d)) != 0 {
					t.Fatalf("self-pair %d not empty", s)
				}
				continue
			}
			p, err := r.PathFor(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if !sameLinks(tab.PairLinks(s, d), p.Links) {
				t.Fatalf("pair %d->%d: table %v, PathFor %v", s, d, tab.PairLinks(s, d), p.Links)
			}
		}
	}
	// MNTSpray implements MultiPairRouter; its table must build too.
	spray, err := routing.NewMNTSpray(tr, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := routing.BuildRouteTable(spray, tr.Hosts()); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRouteTablePatternDependent(t *testing.T) {
	f := topology.NewFoldedClos(2, 12, 4)
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []routing.Router{ad, routing.NewGreedyLocal(f), routing.NewGlobalRearrangeable(f)} {
		if _, err := routing.BuildRouteTable(r, f.Ports()); !errors.Is(err, routing.ErrPatternDependent) {
			t.Fatalf("%s: err %v, want ErrPatternDependent", r.Name(), err)
		}
	}
}

// brokenAppender fails on one specific pair, and emits a negative link on
// another — the two build-time rejection paths.
type brokenAppender struct {
	routing.PairLinkAppender
	failSrc, failDst int
	negSrc, negDst   int
}

func (r *brokenAppender) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	if src == r.failSrc && dst == r.failDst {
		return buf, fmt.Errorf("injected failure")
	}
	if src == r.negSrc && dst == r.negDst {
		return append(buf, topology.NoLink), nil
	}
	return r.PairLinkAppender.AppendPairLinks(src, dst, buf)
}

func TestBuildRouteTableErrors(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	r := &brokenAppender{PairLinkAppender: good, failSrc: 1, failDst: 3, negSrc: -1, negDst: -1}
	_, err = routing.BuildRouteTable(r, f.Ports())
	if err == nil || !strings.Contains(err.Error(), "routing pair 1->3: injected failure") {
		t.Fatalf("err %v, want wrapped pair failure", err)
	}
	neg := &brokenAppender{PairLinkAppender: good, failSrc: -1, failDst: -1, negSrc: 2, negDst: 0}
	_, err = routing.BuildRouteTable(neg, f.Ports())
	if err == nil || !strings.Contains(err.Error(), "invalid link id") {
		t.Fatalf("err %v, want invalid link id", err)
	}
	if _, err := routing.BuildRouteTable(good, -1); err == nil {
		t.Fatal("negative host count accepted")
	}
	// hosts=0 builds an empty but valid table.
	tab, err := routing.BuildRouteTable(good, 0)
	if err != nil || tab.Entries() != 0 || tab.NumLinks() != 0 {
		t.Fatalf("empty table: %v %+v", err, tab)
	}
}

// TestFtreeMultipathAppendPairLinksMatchesPathsFor pins the new fast path
// on FtreeMultipath against its materialized PathsFor output, including
// error parity on a malformed TopSet.
func TestFtreeMultipathAppendPairLinksMatchesPathsFor(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	spray, err := routing.NewKSpray(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := routing.NewPaperMultipath(topology.NewFoldedClos(2, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*routing.FtreeMultipath{spray, routing.NewFullSpray(f), pm} {
		for s := 0; s < f.Ports(); s++ {
			for d := 0; d < f.Ports(); d++ {
				links, err := r.AppendPairLinks(s, d, nil)
				if err != nil {
					t.Fatalf("%s AppendPairLinks(%d,%d): %v", r.Name(), s, d, err)
				}
				paths, err := r.PathsFor(s, d)
				if err != nil {
					t.Fatalf("%s PathsFor(%d,%d): %v", r.Name(), s, d, err)
				}
				var want []topology.LinkID
				for _, p := range paths {
					want = append(want, p.Links...)
				}
				if !sameLinks(links, want) {
					t.Fatalf("%s pair %d->%d: append %v, paths %v", r.Name(), s, d, links, want)
				}
			}
		}
		// Out-of-range errors match.
		_, errA := r.AppendPairLinks(-1, 0, nil)
		_, errP := r.PathsFor(-1, 0)
		if errA == nil || errP == nil || errA.Error() != errP.Error() {
			t.Fatalf("%s: out-of-range errors differ: %v vs %v", r.Name(), errA, errP)
		}
	}
	// Malformed TopSet errors must be identical on both paths.
	for _, bad := range []*routing.FtreeMultipath{
		{F: f, RouterName: "empty-set", TopSet: func(int, int) []int { return nil }},
		{F: f, RouterName: "oob-set", TopSet: func(int, int) []int { return []int{99} }},
	} {
		_, errA := bad.AppendPairLinks(0, 2, nil)
		_, errP := bad.PathsFor(0, 2)
		if errA == nil || errP == nil || errA.Error() != errP.Error() {
			t.Fatalf("%s: errors differ: %v vs %v", bad.RouterName, errA, errP)
		}
	}
}

// TestRouteTableConcurrentReaders exercises the immutability contract: many
// goroutines reading one table must agree with a direct re-read (run under
// -race in CI).
func TestRouteTableConcurrentReaders(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 2)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routing.BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]topology.LinkID, f.Ports()*f.Ports())
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			want[s*f.Ports()+d] = dedupedPairLinks(t, r, s, d)
		}
	}
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			ok := true
			for rep := 0; rep < 50; rep++ {
				for s := 0; s < f.Ports(); s++ {
					for d := 0; d < f.Ports(); d++ {
						if !sameLinks(tab.PairLinks(s, d), want[s*f.Ports()+d]) {
							ok = false
						}
					}
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Fatal("concurrent reader observed a mismatched span")
		}
	}
}

// TestRouteTableDrivesSweepConsistently is a small end-to-end anchor: the
// table's spans reproduce per-pattern loads of a real route. (The full
// delta-vs-oracle property tests live in internal/analysis.)
func TestRouteTableSpansCoverPermutationPairs(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routing.BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	p := permutation.Shift(f.Ports(), 1)
	for s := 0; s < p.N(); s++ {
		path, err := r.PathFor(s, p.Dst(s))
		if err != nil {
			t.Fatal(err)
		}
		if !sameLinks(tab.PairLinks(s, p.Dst(s)), path.Links) {
			t.Fatalf("pair %d->%d span mismatch", s, p.Dst(s))
		}
	}
}

// TestSweepMatchesCheckOnTestRouters runs the engines on the routers that
// live in test code: the delta sweep over each router's route table must
// count exactly the permutations a per-pattern Check finds contended, and
// on the single-path k-ary routers the Lemma-1 kernel must agree with the
// sweep's verdict.
func TestSweepMatchesCheckOnTestRouters(t *testing.T) {
	kary := topology.NewKAryNTree(2, 3)
	mnt := topology.NewMPortNTree(4, 2)
	spray, err := routing.NewMNTSpray(mnt, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := topology.NewFoldedClos(2, 4, 3)
	pm, err := routing.NewPaperMultipath(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r     routing.Router
		hosts int
	}{
		{routing.NewKAryDestMod(kary), kary.Hosts()},
		{routing.NewKAryRandomFixed(kary, 9), kary.Hosts()},
		{spray, mnt.Hosts()},
		{pm, f.Ports()},
	} {
		if _, err := routing.BuildRouteTable(c.r, c.hosts); err != nil {
			t.Fatalf("%s: no route table, so the sweep would not use the delta engine: %v", c.r.Name(), err)
		}
		res := sweep(t, c.r, c.hosts, analysis.Spec{})
		blocked := 0
		permutation.EnumerateFull(c.hosts, func(p *permutation.Permutation) bool {
			a, err := c.r.Route(p)
			if err != nil {
				t.Fatalf("%s: %v", c.r.Name(), err)
			}
			if analysis.Check(a).HasContention() {
				blocked++
			}
			return true
		})
		if res.Blocked != blocked || res.Tested != permutation.CountFull(c.hosts) {
			t.Fatalf("%s: sweep blocked %d/%d, per-pattern Check %d/%d",
				c.r.Name(), res.Blocked, res.Tested, blocked, permutation.CountFull(c.hosts))
		}
		if pr, ok := c.r.(routing.PairRouter); ok {
			lemma, err := analysis.CheckLemma1AllPairs(pr, c.hosts)
			if err != nil {
				t.Fatal(err)
			}
			if lemma.Nonblocking != res.Nonblocking() {
				t.Fatalf("%s: Lemma 1 nonblocking=%v, sweep %v", c.r.Name(), lemma.Nonblocking, res.Nonblocking())
			}
		}
	}
}
