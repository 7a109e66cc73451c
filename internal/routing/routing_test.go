package routing_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// sweep runs the exhaustive sweep s asks for under context.Background().
func sweep(t *testing.T, r routing.Router, hosts int, s analysis.Spec) *analysis.SweepResult {
	t.Helper()
	res, _, err := analysis.Sweep(context.Background(), r, hosts, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sweepRandom runs the randomized+structured sweep under
// context.Background().
func sweepRandom(t *testing.T, r routing.Router, hosts, trials int, seed int64) *analysis.SweepResult {
	t.Helper()
	res, err := analysis.SweepRandomCtx(context.Background(), r, hosts, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- Theorem 3: the paper's single-path routing makes ftree(n+n², r)
// nonblocking -------------------------------------------------------------

func TestTheorem3Lemma1AllPairs(t *testing.T) {
	cases := []struct{ n, r int }{
		{1, 3}, {2, 5}, {2, 8}, {3, 7}, {3, 10}, {4, 9}, {2, 3}, {3, 4},
	}
	for _, c := range cases {
		f := topology.NewFoldedClos(c.n, c.n*c.n, c.r)
		r, err := routing.NewPaperDeterministic(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.CheckLemma1AllPairs(r, f.Ports())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Nonblocking {
			t.Errorf("ftree(%d+%d,%d): Theorem-3 routing violates Lemma 1: %+v", c.n, c.n*c.n, c.r, res.Violation)
		}
	}
}

func TestTheorem3ExhaustiveSmall(t *testing.T) {
	// Every one of the 6! = 720 full permutations of ftree(2+4, 3) must
	// route without contention.
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	res := sweep(t, r, f.Ports(), analysis.Spec{})
	if !res.Nonblocking() {
		t.Fatalf("blocked %d of %d permutations; first: %v (err %v)", res.Blocked, res.Tested, res.FirstBlocked, res.RouteErr)
	}
	if res.Tested != 720 {
		t.Fatalf("tested %d permutations, want 720", res.Tested)
	}
}

func TestTheorem3RandomSweepLarger(t *testing.T) {
	f := topology.NewFoldedClos(4, 16, 12) // 48 hosts
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	res := sweepRandom(t, r, f.Ports(), 200, 1)
	if !res.Nonblocking() {
		t.Fatalf("blocked %d of %d patterns; first: %v (err %v)", res.Blocked, res.Tested, res.FirstBlocked, res.RouteErr)
	}
	if res.MaxLinkLoad > 1 {
		t.Fatalf("max link load %d under a permutation, want 1", res.MaxLinkLoad)
	}
}

// Fig. 3: the uplink from bottom switch v to top switch (i, j) carries
// exactly the r−1 SD pairs (s=(v,i), d=(w,j)) for w ≠ v; the downlink the
// r−1 pairs (s=(w,i), d=(v,j)).
func TestFig3LinkAccounting(t *testing.T) {
	n, r := 3, 7
	f := topology.NewFoldedClos(n, n*n, r)
	rt, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	views, err := analysis.LinkViews(rt, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	v, i, j := 2, 1, 2
	up := f.UpLink(v, i*n+j)
	view := views[up]
	if view == nil {
		t.Fatal("uplink not loaded")
	}
	if len(view.Pairs) != r-1 {
		t.Fatalf("uplink carries %d pairs, want r-1=%d", len(view.Pairs), r-1)
	}
	if len(view.Sources) != 1 || view.Sources[0] != v*n+i {
		t.Fatalf("uplink sources = %v, want exactly host (v,i)=%d", view.Sources, v*n+i)
	}
	for _, pr := range view.Pairs {
		if pr.Dst%n != j {
			t.Fatalf("uplink pair %v has destination local index %d, want j=%d", pr, pr.Dst%n, j)
		}
	}
	down := f.DownLink(i*n+j, v)
	dview := views[down]
	if dview == nil || len(dview.Pairs) != r-1 {
		t.Fatalf("downlink pairs = %v, want r-1", dview)
	}
	if len(dview.Dests) != 1 || dview.Dests[0] != v*n+j {
		t.Fatalf("downlink dests = %v, want exactly host (v,j)=%d", dview.Dests, v*n+j)
	}
}

// --- Theorem 2 tightness: m = n²−1 blocks ---------------------------------

func TestTheorem2TightnessFoldedBlocks(t *testing.T) {
	for _, c := range []struct{ n, r int }{{2, 5}, {3, 7}} {
		m := c.n*c.n - 1
		f := topology.NewFoldedClos(c.n, m, c.r)
		r := routing.NewPaperDeterministicFolded(f)
		res, err := analysis.CheckLemma1AllPairs(r, f.Ports())
		if err != nil {
			t.Fatal(err)
		}
		if res.Nonblocking {
			t.Fatalf("ftree(%d+%d,%d) with folded routing reported nonblocking; Theorem 2 requires m >= n²", c.n, m, c.r)
		}
		w, err := analysis.BlockingWitness(res, f.Ports())
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.Route(w)
		if err != nil {
			t.Fatal(err)
		}
		if !analysis.Check(a).HasContention() {
			t.Fatalf("witness permutation %v does not actually block", w)
		}
	}
}

func TestPaperDeterministicRejectsSmallM(t *testing.T) {
	f := topology.NewFoldedClos(3, 8, 7)
	if _, err := routing.NewPaperDeterministic(f); err == nil {
		t.Fatal("expected error for m < n²")
	}
}

func TestPaperDeterministicFoldedEqualsExactWhenProvisioned(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	exact, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	folded := routing.NewPaperDeterministicFolded(f)
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			if s == d {
				continue
			}
			p1, err1 := exact.PathFor(s, d)
			p2, err2 := folded.PathFor(s, d)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !slices.Equal(p1.Links, p2.Links) {
				t.Fatalf("paths differ for %d->%d", s, d)
			}
		}
	}
}

// --- Baseline deterministic routings block --------------------------------

func TestDestAndSourceModBlock(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5) // even with m = n² these block
	for _, r := range []routing.PairRouter{
		routing.NewDestMod(f),
		routing.NewSourceMod(f),
		routing.NewDestSwitchMod(f),
		routing.NewRandomFixed(f, 7),
	} {
		res, err := analysis.CheckLemma1AllPairs(r, f.Ports())
		if err != nil {
			t.Fatal(err)
		}
		if res.Nonblocking {
			t.Errorf("%s: unexpectedly nonblocking on ftree(2+4,5)", r.Name())
			continue
		}
		w, err := analysis.BlockingWitness(res, f.Ports())
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.Route(w)
		if err != nil {
			t.Fatal(err)
		}
		if !analysis.Check(a).HasContention() {
			t.Errorf("%s: witness %v does not block", r.Name(), w)
		}
	}
}

func TestRouterMechanics(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	// Self pair: empty path.
	p, err := r.PathFor(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatal("self pair should not use links")
	}
	// Intra-switch pair: two hops, no top level.
	p, err = r.PathFor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("intra-switch path length %d", p.Len())
	}
	// Out of range.
	if _, err := r.PathFor(-1, 0); err == nil {
		t.Fatal("negative host accepted")
	}
	if _, err := r.PathFor(0, 99); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	// Route over a pattern validates.
	a, err := r.Route(permutation.Shift(f.Ports(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.SinglePath() {
		t.Fatal("deterministic assignment should be single-path")
	}
	if got := a.Path(0); !got.Valid(f.Net) {
		t.Fatal("Path(0) invalid")
	}
}

func TestTopChoiceOutOfRangeSurfaces(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r := &routing.FtreeSinglePath{F: f, RouterName: "bad", TopChoice: func(s, d int) int { return 99 }}
	if _, err := r.PathFor(0, 5); err == nil || !strings.Contains(err.Error(), "out of") {
		t.Fatalf("expected range error, got %v", err)
	}
}

// --- §IV.B: oblivious multipath -------------------------------------------

func TestMultipathSprayContends(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	spray := routing.NewFullSpray(f)
	// Two pairs from different switches to the same destination switch:
	// with all-paths spraying both may use any top switch, so every
	// downlink into the destination switch is shared.
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 6}, {Src: 2, Dst: 7}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := spray.Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.SinglePath() {
		t.Fatal("spray assignment should be multipath")
	}
	rep := analysis.Check(a)
	if !rep.HasContention() {
		t.Fatal("full spray should contend on shared downlinks (§IV.B)")
	}
}

func TestKSprayWidths(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	if _, err := routing.NewKSpray(f, 0); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := routing.NewKSpray(f, 5); err == nil {
		t.Fatal("width > m accepted")
	}
	r, err := routing.NewKSpray(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps := pathSet(t, r, f.Ports(), 0, 6); len(ps) != 2 {
		t.Fatalf("paths = %d, want 2", len(ps))
	}
	// Intra-switch pair: single local path.
	if ps := pathSet(t, r, f.Ports(), 0, 1); len(ps) != 1 || ps[0].Len() != 2 {
		t.Fatal("intra-switch multipath should be the single local path")
	}
	// Self pair.
	if ps := pathSet(t, r, f.Ports(), 3, 3); len(ps) != 1 || ps[0].Len() != 0 {
		t.Fatal("self pair should be linkless")
	}
}

func TestPaperMultipathRowCleanUplinks(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperMultipath(f)
	if err != nil {
		t.Fatal(err)
	}
	// The row scheme keeps each uplink dedicated to one source, but
	// downlinks aggregate destinations: a permutation with two pairs of
	// different sources/destinations into one switch must contend.
	p, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 8}, {Src: 2, Dst: 9}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Route(p)
	if err != nil {
		t.Fatal(err)
	}
	if !analysis.Check(a).HasContention() {
		t.Fatal("row multipath should contend on downlinks")
	}
	// Under-provisioned construction is rejected.
	small := topology.NewFoldedClos(3, 4, 5)
	if _, err := routing.NewPaperMultipath(small); err == nil {
		t.Fatal("m < n² accepted")
	}
}

// --- NONBLOCKINGADAPTIVE ---------------------------------------------------

func TestAdaptiveNonblockingExhaustive(t *testing.T) {
	// ftree(2+12, 4): c = 2, worst case 1 configuration of (c+1)·n = 6
	// switches per the simple bound; m = 12 is ample. All 8! = 40320
	// permutations must route contention-free (Theorem 4).
	f := topology.NewFoldedClos(2, 12, 4)
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.C != 2 {
		t.Fatalf("c = %d, want 2", r.C)
	}
	res := sweep(t, r, f.Ports(), analysis.Spec{})
	if !res.Nonblocking() {
		t.Fatalf("blocked %d/%d; first %v (err %v)", res.Blocked, res.Tested, res.FirstBlocked, res.RouteErr)
	}
}

func TestAdaptivePartialPatternsExhaustive(t *testing.T) {
	// Adaptive routes depend on the pattern, so partial permutations are
	// not covered by full-permutation sweeps; enumerate all of them on a
	// small instance.
	f := topology.NewFoldedClos(2, 12, 3)
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	// Every partial permutation is a full one with some sources idle, so
	// idling each subset of sources of every full permutation reaches all
	// of them; seen drops the repeats.
	n := f.Ports()
	seen := map[string]bool{}
	checked := 0
	permutation.EnumerateFull(n, func(full *permutation.Permutation) bool {
		for idle := 0; idle < 1<<n; idle++ {
			p := full.Clone()
			for s := 0; s < n; s++ {
				if idle&(1<<s) != 0 {
					p.Remove(s)
				}
			}
			if seen[p.String()] {
				continue
			}
			seen[p.String()] = true
			a, err := r.Route(p)
			if err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
			if analysis.Check(a).HasContention() {
				t.Fatalf("pattern %v contends", p)
			}
			checked++
		}
		return true
	})
	if checked < 1000 {
		t.Fatalf("only %d patterns checked", checked)
	}
}

func TestAdaptiveNonblockingExhaustiveC1(t *testing.T) {
	// r = n exercises c = 1: switch numbers are single base-n digits and
	// a configuration has only 2 partitions. All 9! permutations of
	// ftree(3+24, 3) must route clean.
	f := topology.NewFoldedClos(3, 24, 3)
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.C != 1 {
		t.Fatalf("c = %d, want 1", r.C)
	}
	res := sweep(t, r, f.Ports(), analysis.Spec{Parallel: true, Workers: 0})
	if !res.Nonblocking() {
		t.Fatalf("blocked %d/%d; first %v (err %v)", res.Blocked, res.Tested, res.FirstBlocked, res.RouteErr)
	}
	if res.Tested != 362880 {
		t.Fatalf("tested %d", res.Tested)
	}
}

func TestAdaptiveNonblockingC3(t *testing.T) {
	// n = 2, r = 5 gives c = 3 (2² < 5 ≤ 2³): four partitions per
	// configuration. Randomized + structured sweep plus all partial
	// patterns of the first six hosts embedded in the network.
	f := topology.NewFoldedClos(2, 24, 5)
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.C != 3 {
		t.Fatalf("c = %d, want 3", r.C)
	}
	res := sweepRandom(t, r, f.Ports(), 300, 13)
	if !res.Nonblocking() {
		t.Fatalf("blocked %d/%d; first %v (err %v)", res.Blocked, res.Tested, res.FirstBlocked, res.RouteErr)
	}
}

func TestAdaptiveRandomSweepLarger(t *testing.T) {
	f := topology.NewFoldedClos(4, 48, 16) // c=2, ample m
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	res := sweepRandom(t, r, f.Ports(), 100, 3)
	if !res.Nonblocking() {
		t.Fatalf("blocked %d/%d; first %v (err %v)", res.Blocked, res.Tested, res.FirstBlocked, res.RouteErr)
	}
}

func TestAdaptiveBeatsDeterministicBoundAsymptotically(t *testing.T) {
	// For growing n with r = n² (c = 2), the measured top-switch demand
	// must stay below the deterministic requirement n² once n is large
	// enough, and within the Theorem-5 budget always.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 12, 16} {
		r := n * n // c = 2 since n^2 >= r
		f := topology.NewFoldedClos(n, 1, r)
		ad, err := routing.NewNonblockingAdaptive(f)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0
		for trial := 0; trial < 5; trial++ {
			p := permutation.Random(rng, f.Ports())
			need, err := ad.RequiredM(p)
			if err != nil {
				t.Fatal(err)
			}
			if need > worst {
				worst = need
			}
		}
		adv := permutation.GreedyLowSpread(n, r, ad.C)
		need, err := ad.RequiredM(adv)
		if err != nil {
			t.Fatal(err)
		}
		if need > worst {
			worst = need
		}
		if n >= 12 && worst >= n*n {
			t.Errorf("n=%d: adaptive used %d top switches, not below deterministic n²=%d", n, worst, n*n)
		}
	}
}

func TestAdaptiveRejectsInsufficientM(t *testing.T) {
	// With m=1 the router cannot place even one configuration for
	// patterns with cross-switch pairs.
	f := topology.NewFoldedClos(2, 1, 4)
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(permutation.SwitchShift(2, 4, 1)); err == nil {
		t.Fatal("expected m-exhausted error")
	}
}

func TestAdaptiveRejectsNEquals1AndWrongSize(t *testing.T) {
	f := topology.NewFoldedClos(1, 1, 4)
	if _, err := routing.NewNonblockingAdaptive(f); err == nil {
		t.Fatal("n=1 accepted")
	}
	f2 := topology.NewFoldedClos(2, 12, 4)
	r, err := routing.NewNonblockingAdaptive(f2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(permutation.Identity(3)); err == nil {
		t.Fatal("wrong-size pattern accepted")
	}
}

func TestAdaptiveClassDiffProperty(t *testing.T) {
	// Lemma 3/4: SD pairs from different source switches never share a
	// link, whatever the pattern. Check on random patterns by examining
	// the contention report pair lists.
	f := topology.NewFoldedClos(3, 36, 9)
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		p := randomPartial(rng, f.Ports(), 0.8)
		a, err := r.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		rep := analysis.Check(a)
		for _, idxs := range rep.LinkPairs {
			for i := 1; i < len(idxs); i++ {
				s1 := a.Pairs[idxs[0]].Src / f.N
				s2 := a.Pairs[idxs[i]].Src / f.N
				if s1 != s2 {
					t.Fatalf("pairs from switches %d and %d share a link", s1, s2)
				}
			}
		}
	}
}

func TestAdaptiveFirstFitUsesMoreConfigs(t *testing.T) {
	// Ablation: first-fit partition selection must never beat greedy
	// largest-subset, and should lose on adversarial patterns.
	n, r := 6, 36
	f := topology.NewFoldedClos(n, 1, r)
	greedy, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	firstfit := &routing.NonblockingAdaptive{F: f, C: greedy.C, FirstFit: true}
	worse, better := 0, 0
	rng := rand.New(rand.NewSource(17))
	pats := []*permutation.Permutation{
		permutation.GreedyLowSpread(n, r, greedy.C),
		permutation.LocalRotate(n, r),
	}
	for i := 0; i < 10; i++ {
		pats = append(pats, permutation.Random(rng, f.Ports()))
	}
	for _, p := range pats {
		g, err := greedy.RequiredM(p)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := firstfit.RequiredM(p)
		if err != nil {
			t.Fatal(err)
		}
		if ff < g {
			better++
		}
		if ff > g {
			worse++
		}
	}
	if better > worse {
		t.Fatalf("first-fit beat greedy on %d patterns vs losing %d", better, worse)
	}
}

// --- Greedy local baseline --------------------------------------------------

func TestGreedyLocalNotNonblocking(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r := routing.NewGreedyLocal(f)
	res := sweepRandom(t, r, f.Ports(), 300, 11)
	if res.RouteErr != nil {
		t.Fatal(res.RouteErr)
	}
	if res.Blocked == 0 {
		t.Fatal("greedy-local found no blocked pattern in 300+ trials; expected blocking (no Class-DIFF guarantee)")
	}
}

func TestGreedyLocalMechanics(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r := routing.NewGreedyLocal(f)
	if r.Name() != "greedy-local" {
		t.Fatal("name")
	}
	if _, err := r.Route(permutation.Identity(3)); err == nil {
		t.Fatal("wrong-size pattern accepted")
	}
	a, err := r.Route(permutation.Neighbor(f.Ports()))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// pathSet routes the one-pair pattern src->dst over hosts endpoints with r
// and returns the pair's path set.
func pathSet(t *testing.T, r routing.Router, hosts, src, dst int) []topology.Path {
	t.Helper()
	p, err := permutation.FromPairs(hosts, []permutation.Pair{{Src: src, Dst: dst}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Route(p)
	if err != nil {
		t.Fatalf("%s %d->%d: %v", r.Name(), src, dst, err)
	}
	return a.PathSets[0]
}
