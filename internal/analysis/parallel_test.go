package analysis

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestSweepExhaustiveParallelMatchesSequential(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	bad := routing.NewDestMod(f)
	// The witnesses differ: sequential reports the first blocked pattern
	// of the whole Heap enumeration, parallel the first of the lowest
	// blocked level-1 shard — walked by Heap swaps under the delta
	// scorer, lexicographically under the scratch one.
	scratch := &patternOnlyRouter{inner: bad}
	for _, w := range []struct {
		r        routing.Router
		parallel bool
		want     string
	}{
		{bad, false, "0->2 1->3 2->4 3->0 4->1 5->5"},
		{scratch, false, "0->2 1->3 2->4 3->0 4->1 5->5"},
		{bad, true, "0->0 1->3 2->1 3->5 4->4 5->2"},
		{scratch, true, "0->0 1->2 2->1 3->5 4->3 5->4"},
	} {
		res := SweepExhaustive(w.r, f.Ports())
		if w.parallel {
			res = SweepExhaustiveParallel(w.r, f.Ports(), 2)
		}
		if got := res.FirstBlocked.String(); got != w.want {
			t.Fatalf("%T parallel=%v: witness %s, want %s", w.r, w.parallel, got, w.want)
		}
	}
	for _, r := range []routing.Router{good, bad} {
		seq := SweepExhaustive(r, f.Ports())
		for _, workers := range []int{1, 2, 4, 0} {
			par := SweepExhaustiveParallel(r, f.Ports(), workers)
			if par.Tested != seq.Tested || par.Blocked != seq.Blocked || par.MaxLinkLoad != seq.MaxLinkLoad {
				t.Fatalf("%s workers=%d: parallel (%d,%d,%d) vs sequential (%d,%d,%d)",
					r.Name(), workers, par.Tested, par.Blocked, par.MaxLinkLoad,
					seq.Tested, seq.Blocked, seq.MaxLinkLoad)
			}
			if (seq.FirstBlocked == nil) != (par.FirstBlocked == nil) {
				t.Fatalf("%s: FirstBlocked presence mismatch", r.Name())
			}
			if want := firstShardWitness(t, r, f.Ports()); !sameWitness(par.FirstBlocked, want) {
				t.Fatalf("%s workers=%d: parallel witness %v, want lowest blocked level-1 shard's %v",
					r.Name(), workers, par.FirstBlocked, want)
			}
		}
	}
}

// firstShardWitness is the parallel sweep's documented witness: the first
// blocked pattern of the lowest blocked level-1 prefix shard, each shard
// scanned first-blocked-only in its own enumeration order (nil when no
// shard blocks).
func firstShardWitness(t *testing.T, r routing.Router, hosts int) *permutation.Permutation {
	t.Helper()
	for shard := 0; shard < hosts; shard++ {
		res, err := SweepShardFirstBlockedCtx(context.Background(), r, hosts, []int{shard}, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if res.FirstBlocked != nil {
			return res.FirstBlocked
		}
	}
	return nil
}

func sameWitness(a, b *permutation.Permutation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(b)
}

func TestSweepExhaustiveParallelTinyAndErrors(t *testing.T) {
	f := topology.NewFoldedClos(1, 1, 1)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	res := SweepExhaustiveParallel(r, f.Ports(), 4)
	if res.Tested != 1 {
		t.Fatalf("hosts=1: tested %d", res.Tested)
	}
	// Routing errors surface and stop the sweep.
	tiny := topology.NewFoldedClos(2, 1, 3)
	ad, err := routing.NewNonblockingAdaptive(tiny)
	if err != nil {
		t.Fatal(err)
	}
	out := SweepExhaustiveParallel(ad, tiny.Ports(), 3)
	if out.RouteErr == nil {
		t.Fatal("expected route error")
	}
	if out.Nonblocking() {
		t.Fatal("errored sweep must not claim nonblocking")
	}
}

// failingRouter wraps a working router but fails on every pattern sending
// host 0 to failDst — a deterministic, pattern-keyed fault for exercising
// the sweep error path.
type failingRouter struct {
	inner   routing.Router
	failDst int
}

func (r *failingRouter) Name() string { return "failing-" + r.inner.Name() }

func (r *failingRouter) Route(p *permutation.Permutation) (*routing.Assignment, error) {
	if p.Dst(0) == r.failDst {
		return nil, fmt.Errorf("injected failure for 0->%d", r.failDst)
	}
	return r.inner.Route(p)
}

// TestSweepExhaustiveParallelErrorPathDeterministic is the regression test
// for the racy error path: a parallel sweep hitting a routing failure must
// report the same (sequential-order first) error as SweepExhaustive and
// zeroed statistics, identically across worker counts and repeated runs.
func TestSweepExhaustiveParallelErrorPathDeterministic(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	r := &failingRouter{inner: good, failDst: 2}
	seq := SweepExhaustive(r, f.Ports())
	if seq.RouteErr == nil {
		t.Fatal("sequential sweep should hit the injected failure")
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		for rep := 0; rep < 5; rep++ {
			par := SweepExhaustiveParallel(r, f.Ports(), workers)
			if par.RouteErr == nil || par.RouteErr.Error() != seq.RouteErr.Error() {
				t.Fatalf("workers=%d rep=%d: RouteErr %v, want %v", workers, rep, par.RouteErr, seq.RouteErr)
			}
			if par.Tested != 0 || par.Blocked != 0 || par.MaxLinkLoad != 0 || par.FirstBlocked != nil {
				t.Fatalf("workers=%d rep=%d: error path must zero statistics, got (%d,%d,%d,%v)",
					workers, rep, par.Tested, par.Blocked, par.MaxLinkLoad, par.FirstBlocked)
			}
			if par.Nonblocking() {
				t.Fatal("errored sweep must not claim nonblocking")
			}
		}
	}
}

func TestCheckLemma1AllPairsParallelMatchesSequential(t *testing.T) {
	// m = n² (paper nonblocking, dest-mod blocking) and m < n² shapes.
	for _, c := range []struct{ n, m, r int }{{2, 4, 3}, {2, 3, 5}, {3, 5, 4}} {
		f := topology.NewFoldedClos(c.n, c.m, c.r)
		rs := []routing.PairRouter{routing.NewDestMod(f), routing.NewPaperDeterministicFolded(f), routing.NewSourceMod(f)}
		if good, err := routing.NewPaperDeterministic(f); err == nil {
			rs = append(rs, good)
		}
		for _, r := range rs {
			seq, err := CheckLemma1AllPairs(r, f.Ports())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 0, 64} {
				par, err := CheckLemma1AllPairsParallel(r, f.Ports(), workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(par, seq) {
					t.Fatalf("%s on %s workers=%d: parallel (%v, %+v) vs sequential (%v, %+v)",
						r.Name(), f.Net.Name, workers, par.Nonblocking, par.Violation, seq.Nonblocking, seq.Violation)
				}
			}
		}
	}
	// Error path: the parallel check reports the sequential-order first
	// failing pair regardless of worker count.
	f := topology.NewFoldedClos(2, 4, 3)
	broke := &routing.FtreeSinglePath{F: f, RouterName: "broke", TopChoice: func(s, d int) int {
		if s >= 4 {
			return 99
		}
		return 0
	}}
	_, errSeq := CheckLemma1AllPairs(broke, f.Ports())
	if errSeq == nil {
		t.Fatal("expected sequential error")
	}
	for _, workers := range []int{2, 5, 0} {
		_, errPar := CheckLemma1AllPairsParallel(broke, f.Ports(), workers)
		if errPar == nil || errPar.Error() != errSeq.Error() {
			t.Fatalf("workers=%d: error %v, want %v", workers, errPar, errSeq)
		}
	}
}

func TestWorstCaseLinkLoadParallelMatchesSequential(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	for _, r := range []routing.PairRouter{routing.NewDestMod(f)} {
		seq, err := WorstCaseLinkLoad(r, f.Ports())
		if err != nil {
			t.Fatal(err)
		}
		par, err := WorstCaseLinkLoadParallel(r, f.Ports(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("parallel %+v vs sequential %+v", par, seq)
		}
	}
}

func TestBlockingProbabilityParallel(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	frac, load, err := BlockingProbabilityParallel(good, f.Ports(), 40, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 || load != 1 {
		t.Fatalf("nonblocking: frac=%v load=%v", frac, load)
	}
	bad := routing.NewDestMod(f)
	frac, _, err = BlockingProbabilityParallel(bad, f.Ports(), 40, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if frac <= 0 {
		t.Fatal("dest-mod should block sometimes")
	}
	// workers > trials and workers <= 1 paths.
	if _, _, err := BlockingProbabilityParallel(good, f.Ports(), 2, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := BlockingProbabilityParallel(good, f.Ports(), 5, 1, 1); err != nil {
		t.Fatal(err)
	}
	if f2, l2, err := BlockingProbabilityParallel(good, f.Ports(), 0, 0, 1); err != nil || f2 != 0 || l2 != 0 {
		t.Fatal("zero trials should return zeros")
	}
	// Errors propagate.
	tiny := topology.NewFoldedClos(2, 1, 3)
	ad, err := routing.NewNonblockingAdaptive(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BlockingProbabilityParallel(ad, tiny.Ports(), 8, 4, 1); err == nil {
		t.Fatal("expected routing error")
	}
}

func TestMaxRootPairsModesParallelMatchesSequential(t *testing.T) {
	for _, c := range []struct{ n, r int }{{1, 3}, {2, 3}, {2, 5}, {3, 4}} {
		seq := MaxRootPairsModes(c.n, c.r)
		for _, workers := range []int{1, 3, 0} {
			par := MaxRootPairsModesParallel(c.n, c.r, workers)
			if par != seq {
				t.Fatalf("n=%d r=%d workers=%d: parallel %d vs sequential %d", c.n, c.r, workers, par, seq)
			}
		}
	}
	if MaxRootPairsModesParallel(2, 1, 2) != 0 {
		t.Fatal("r=1 should be 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid instance should panic")
			}
		}()
		MaxRootPairsModesParallel(0, 2, 2)
	}()
}

func TestEnumerateFullPrefixShardsPartition(t *testing.T) {
	// The n shards together must produce exactly the n! permutations,
	// each once.
	n := 5
	seen := map[string]bool{}
	total := 0
	for shard := 0; shard < n; shard++ {
		ok := permutation.EnumerateFullPrefix(n, shard, func(p *permutation.Permutation) bool {
			s := p.String()
			if seen[s] {
				t.Fatalf("duplicate %s", s)
			}
			seen[s] = true
			total++
			if p.Dst(0) != shard {
				t.Fatalf("shard %d produced %s", shard, s)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if !ok {
			t.Fatal("shard aborted")
		}
	}
	if total != permutation.CountFull(n) {
		t.Fatalf("total %d, want %d", total, permutation.CountFull(n))
	}
	// Degenerate shards.
	if !permutation.EnumerateFullPrefix(0, 0, func(*permutation.Permutation) bool { return true }) {
		t.Fatal("n=0 shard")
	}
	if !permutation.EnumerateFullPrefix(3, 9, func(*permutation.Permutation) bool { return true }) {
		t.Fatal("out-of-range shard should be empty and complete")
	}
	// Early stop.
	count := 0
	done := permutation.EnumerateFullPrefix(4, 1, func(*permutation.Permutation) bool {
		count++
		return count < 2
	})
	if done || count != 2 {
		t.Fatalf("early stop: done=%v count=%d", done, count)
	}
}
