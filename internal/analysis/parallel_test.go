package analysis

import (
	"context"
	"fmt"
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
		res := mustSweep(t, w.r, f.Ports(), Spec{})
		if w.parallel {
			res = mustSweep(t, w.r, f.Ports(), Spec{Parallel: true, Workers: 2})
		}
		if got := res.FirstBlocked.String(); got != w.want {
			t.Fatalf("%T parallel=%v: witness %s, want %s", w.r, w.parallel, got, w.want)
		}
	}
	for _, r := range []routing.Router{good, bad} {
		seq := mustSweep(t, r, f.Ports(), Spec{})
		for _, workers := range []int{1, 2, 4, 0} {
			par := mustSweep(t, r, f.Ports(), Spec{Parallel: true, Workers: workers})
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
	res := mustSweep(t, r, f.Ports(), Spec{Parallel: true, Workers: 4})
	if res.Tested != 1 {
		t.Fatalf("hosts=1: tested %d", res.Tested)
	}
	// Routing errors surface and stop the sweep.
	tiny := topology.NewFoldedClos(2, 1, 3)
	ad, err := routing.NewNonblockingAdaptive(tiny)
	if err != nil {
		t.Fatal(err)
	}
	out := mustSweep(t, ad, tiny.Ports(), Spec{Parallel: true, Workers: 3})
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
// report the same (sequential-order first) error as the sequential sweep and
// zeroed statistics, identically across worker counts and repeated runs.
func TestSweepExhaustiveParallelErrorPathDeterministic(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	r := &failingRouter{inner: good, failDst: 2}
	seq := mustSweep(t, r, f.Ports(), Spec{})
	if seq.RouteErr == nil {
		t.Fatal("sequential sweep should hit the injected failure")
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		for rep := 0; rep < 5; rep++ {
			par := mustSweep(t, r, f.Ports(), Spec{Parallel: true, Workers: workers})
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
