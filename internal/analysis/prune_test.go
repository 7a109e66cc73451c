package analysis

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// oracleShard is the scratch Checker's walk of one prefix shard in the
// delta engine's own order (Heap order over the free positions), so its
// first blocked pattern is the shard witness the delta engine reports.
func oracleShard(r routing.Router, hosts int, prefix []int) *SweepResult {
	res, _ := oracleEngine(r, hosts).sweep(context.Background(), prefix, true, false, nil)
	return res
}

// TestPrunedSweepMatchesOracle is the differential test of the pruned
// count: for every deterministic scheme, spray and k-spray on small
// ftrees, every mode that counts with the pruned walk — sequential,
// Parallel at 1, 2 and 3 workers, every level-1 prefix shard, a sample of
// level-2 shards and the empty prefix — must return the oracle engine's
// whole SweepResult: counts, MaxLinkLoad and the witness of the mode's
// own order. The grid must hit the MaxLinkLoad = 3 shapes, where the
// matching rather than a visited pattern sets the maximum, and a
// nonblocking shape, where nothing is pruned.
func TestPrunedSweepMatchesOracle(t *testing.T) {
	type scheme struct {
		name  string
		width int
		seed  int64
	}
	all := []scheme{
		{"dest-mod", 0, 0}, {"source-mod", 0, 0}, {"dest-switch-mod", 0, 0},
		{"random-fixed", 0, 1}, {"random-fixed", 0, 2}, {"random-fixed", 0, 3},
		{"spray", 0, 0}, {"spray", 2, 0}, {"paper", 0, 0},
	}
	type shape struct {
		n, m, r int
		schemes []scheme
	}
	shapes := []shape{
		{2, 1, 3, all}, {2, 2, 3, all}, {2, 4, 3, all}, {3, 2, 2, all},
		{1, 1, 7, all}, {2, 3, 4, all},
		{3, 1, 3, []scheme{{"dest-mod", 0, 0}}},
		{3, 2, 3, []scheme{{"random-fixed", 0, 1}}},
	}
	load3, nonblocking := 0, 0
	for _, sh := range shapes {
		f := topology.NewFoldedClos(sh.n, sh.m, sh.r)
		hosts := f.Ports()
		for _, sc := range sh.schemes {
			r, err := routing.NewFtreeRouter(f, sc.name, sc.width, sc.seed)
			if err != nil {
				continue // the paper routing needs m ≥ n²
			}
			name := fmt.Sprintf("%s(width %d, seed %d) on ftree(%d+%d, %d)", sc.name, sc.width, sc.seed, sh.n, sh.m, sh.r)
			if newEngine(r, hosts, allPatterns).table == nil {
				t.Fatalf("%s: no route table, so no pruned walk to test", name)
			}
			seq := oracleSweep(r, hosts)
			sameSweepResult(t, name+" sequential", mustSweep(t, r, hosts, Spec{}), seq)
			// The empty prefix walks the whole space in Heap order, as the
			// sequential sweep does.
			sameSweepResult(t, name+" empty prefix", mustSweep(t, r, hosts, Spec{Prefix: []int{}}), seq)
			shards := make([]SweepResult, hosts)
			for s := range shards {
				shards[s] = *oracleShard(r, hosts, []int{s})
				sameSweepResult(t, fmt.Sprintf("%s prefix [%d]", name, s), mustSweep(t, r, hosts, Spec{Prefix: []int{s}}), &shards[s])
			}
			par := MergeShardSweeps(shards)
			for _, w := range []int{1, 2, 3} {
				sameSweepResult(t, fmt.Sprintf("%s parallel/%d", name, w), mustSweep(t, r, hosts, Spec{Parallel: true, Workers: w}), par)
			}
			// Every seventh level-2 shard: a spread of prefixes whose own
			// pair contends and of clean ones.
			for i := 0; i < hosts*(hosts-1); i += 7 {
				a, b := i/(hosts-1), i%(hosts-1)
				if b >= a {
					b++
				}
				prefix := []int{a, b}
				sameSweepResult(t, fmt.Sprintf("%s prefix %v", name, prefix), mustSweep(t, r, hosts, Spec{Prefix: prefix}), oracleShard(r, hosts, prefix))
			}
			if seq.MaxLinkLoad == 3 {
				load3++
			}
			if seq.Blocked == 0 {
				nonblocking++
			}
		}
	}
	if load3 == 0 || nonblocking == 0 {
		t.Fatalf("grid hit %d MaxLinkLoad = 3 cases and %d nonblocking ones; it must hit both", load3, nonblocking)
	}
}

// TestMatchingSizeAugments pins the matching behind the pruned count's
// MaxLinkLoad to a maximum matching, not a greedy one: free source 0 may
// take destinations 0 and 1 and free source 1 only destination 0, so the
// greedy first choice 0→0 must be undone along an augmenting path.
func TestMatchingSizeAugments(t *testing.T) {
	m := newMatching(3)
	m.adj = append(m.adj, 0, 1, 0)
	m.off = append(m.off, 0, 2, 3, 3) // sources 0, 1 and 2 (no pair)
	if got := m.size(); got != 2 {
		t.Fatalf("matching size %d, want 2", got)
	}
}

// FuzzLemma1VsSweep checks Lemma 1 against the pruned exhaustive sweep on
// random-fixed routings of ftree shapes with at most 8 hosts: the Lemma-1
// verdict must equal the sweep's, both engines' blocking witnesses must
// replay as contended through Check, and the sweep's counts and
// MaxLinkLoad must equal the oracle engine's.
func FuzzLemma1VsSweep(f *testing.F) {
	for _, c := range []struct {
		seed    int64
		n, m, r uint8
	}{{1, 2, 1, 3}, {2, 3, 1, 2}, {3, 2, 3, 4}, {4, 1, 1, 8}, {5, 4, 16, 2}, {6, 2, 2, 3}} {
		f.Add(c.seed, c.n, c.m, c.r)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m, r uint8) {
		nn := 1 + int(n)%4
		rr := 1 + int(r)%(8/nn)
		mm := 1 + int(m)%(nn*nn+1)
		ft := topology.NewFoldedClos(nn, mm, rr)
		hosts := ft.Ports()
		rt := routing.NewRandomFixed(ft, seed)
		name := fmt.Sprintf("random-fixed(seed %d) on ftree(%d+%d, %d)", seed, nn, mm, rr)
		lemma, err := CheckLemma1AllPairs(rt, hosts)
		if err != nil {
			t.Fatalf("%s: Lemma 1: %v", name, err)
		}
		sweep := mustSweep(t, rt, hosts, Spec{})
		if lemma.Nonblocking != (sweep.Blocked == 0) {
			t.Fatalf("%s: Lemma 1 says nonblocking=%v, sweep blocked %d of %d", name, lemma.Nonblocking, sweep.Blocked, sweep.Tested)
		}
		oracle := oracleSweep(rt, hosts)
		if sweep.Tested != oracle.Tested || sweep.Blocked != oracle.Blocked || sweep.MaxLinkLoad != oracle.MaxLinkLoad {
			t.Fatalf("%s: sweep (%d,%d,%d), oracle (%d,%d,%d)", name,
				sweep.Tested, sweep.Blocked, sweep.MaxLinkLoad, oracle.Tested, oracle.Blocked, oracle.MaxLinkLoad)
		}
		if lemma.Nonblocking {
			return
		}
		w, err := BlockingWitness(lemma, hosts)
		if err != nil {
			t.Fatalf("%s: Lemma-1 witness: %v", name, err)
		}
		for _, c := range []struct {
			engine string
			w      *permutation.Permutation
		}{{"Lemma 1", w}, {"sweep", sweep.FirstBlocked}} {
			a, err := rt.Route(c.w)
			if err != nil {
				t.Fatalf("%s: routing the %s witness %s: %v", name, c.engine, c.w, err)
			}
			if !Check(a).HasContention() {
				t.Fatalf("%s: the %s witness %s does not contend", name, c.engine, c.w)
			}
		}
	})
}
