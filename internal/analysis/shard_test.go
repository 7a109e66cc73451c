package analysis

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestSweepShardMergeMatchesParallel: sweeping every shard of a planned
// prefix partition and merging in order reproduces the single-process
// parallel sweep — counts, max load, and the FirstBlocked witness — at
// level-1 sharding and when the partition is forced one level deeper
// (where the witness needs the coordinator's first-blocked re-derivation
// on the lowest blocked top-level shard).
func TestSweepShardMergeMatchesParallel(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	bad := routing.NewDestMod(f)
	wide := topology.NewFoldedClos(2, 6, 3) // m wide enough for adaptive routing
	ad, err := routing.NewNonblockingAdaptive(wide)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		r     routing.Router
		hosts int
	}{
		{good, f.Ports()},
		{bad, f.Ports()},
		{ad, wide.Ports()}, // pattern-dependent: oracle engine
	} {
		r, hosts := tc.r, tc.hosts
		want := mustSweep(t, r, hosts, Spec{Parallel: true, Workers: 4})
		for _, minShards := range []int{1, hosts, hosts + 1, hosts * (hosts - 1)} {
			shards := permutation.PrefixShards(hosts, minShards)
			results := make([]SweepResult, len(shards))
			for i, pfx := range shards {
				res, err := SweepShardCtx(ctx, r, hosts, pfx, nil)
				if err != nil {
					t.Fatalf("%s shard %v: %v", r.Name(), pfx, err)
				}
				results[i] = *res
			}
			got := MergeShardSweeps(results)
			if got.Tested != want.Tested || got.Blocked != want.Blocked || got.MaxLinkLoad != want.MaxLinkLoad {
				t.Fatalf("%s min=%d: merged (%d,%d,%d) vs parallel (%d,%d,%d)",
					r.Name(), minShards, got.Tested, got.Blocked, got.MaxLinkLoad,
					want.Tested, want.Blocked, want.MaxLinkLoad)
			}
			if (want.FirstBlocked == nil) != (got.FirstBlocked == nil) {
				t.Fatalf("%s min=%d: FirstBlocked presence mismatch", r.Name(), minShards)
			}
			if want.FirstBlocked == nil {
				continue
			}
			witness := got.FirstBlocked
			if len(shards[0]) > 1 {
				// Deep partition: sub-shard witnesses are not comparable to
				// the single-process answer. Re-derive on the lowest blocked
				// top-level shard, as the coordinator does.
				top := -1
				for i, pfx := range shards {
					if results[i].Blocked > 0 {
						top = pfx[0]
						break
					}
				}
				fb, err := SweepShardFirstBlockedCtx(ctx, r, hosts, []int{top}, nil)
				if err != nil {
					t.Fatal(err)
				}
				witness = fb.FirstBlocked
			}
			if witness == nil || witness.String() != want.FirstBlocked.String() {
				t.Fatalf("%s min=%d: witness %v, parallel %v", r.Name(), minShards, witness, want.FirstBlocked)
			}
		}
	}
}

// TestSweepShardRouteErr: a shard hitting a routing failure reports it in
// the result (not the returned error), the merge surfaces it, and
// SweepFirstRouteErr re-derives exactly the canonical error the parallel
// sweep reports.
func TestSweepShardRouteErr(t *testing.T) {
	tiny := topology.NewFoldedClos(2, 1, 3) // m=1: adaptive routing fails
	ad, err := routing.NewNonblockingAdaptive(tiny)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tiny.Ports()
	shards := permutation.PrefixShards(hosts, hosts)
	results := make([]SweepResult, len(shards))
	sawErr := false
	for i, pfx := range shards {
		res, err := SweepShardCtx(context.Background(), ad, hosts, pfx, nil)
		if err != nil {
			t.Fatalf("shard %v: transport-level err %v", pfx, err)
		}
		results[i] = *res
		sawErr = sawErr || res.RouteErr != nil
	}
	if !sawErr {
		t.Fatal("no shard reported the routing failure")
	}
	if MergeShardSweeps(results).RouteErr == nil {
		t.Fatal("merge dropped the routing failure")
	}
	want := mustSweep(t, ad, hosts, Spec{Parallel: true, Workers: 4})
	got := SweepFirstRouteErr(ad, hosts)
	if got.RouteErr == nil || got.RouteErr.Error() != want.RouteErr.Error() {
		t.Fatalf("re-derived %v, parallel %v", got.RouteErr, want.RouteErr)
	}
	if got.Tested != 0 || got.Blocked != 0 || got.MaxLinkLoad != 0 {
		t.Fatalf("canonical error result carries statistics: %+v", got)
	}
}

// TestSweepShardInvalidPrefix: out-of-range prefix destinations are an
// error, not a silent empty shard — a coordinator bug must not merge to a
// plausible-looking zero result.
func TestSweepShardInvalidPrefix(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, pfx := range [][]int{{-1}, {f.Ports()}, {0, f.Ports() + 3}, {0, 0}, {1, 2, 1}} {
		if _, err := SweepShardCtx(context.Background(), r, f.Ports(), pfx, nil); err == nil {
			t.Fatalf("prefix %v accepted", pfx)
		}
	}
}

// TestProgressDeltasSumToCounters: progress callbacks from sequential,
// parallel, and shard sweeps deliver non-negative deltas that sum exactly
// to the final counters. hosts = 7 gives 5040 patterns, so the 4096-stride
// fires mid-sweep and the flush carries a remainder.
func TestProgressDeltasSumToCounters(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	bad := routing.NewDestMod(f)
	hosts := 7 // sweep a subspace: n! = 5040 > one 4096 stride
	ctx := context.Background()
	for _, v := range []struct {
		name string
		spec Spec
	}{
		{"sequential", Spec{}},
		{"parallel", Spec{Parallel: true, Workers: 3}},
		{"shard", Spec{Prefix: []int{2}}},
	} {
		var tested, blocked, calls atomic.Int64
		v.spec.Progress = func(dt, db int) {
			if dt < 0 || db < 0 {
				t.Errorf("%s: negative delta (%d,%d)", v.name, dt, db)
			}
			tested.Add(int64(dt))
			blocked.Add(int64(db))
			calls.Add(1)
		}
		res, _, err := Sweep(ctx, bad, hosts, v.spec)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if int(tested.Load()) != res.Tested || int(blocked.Load()) != res.Blocked {
			t.Fatalf("%s: deltas sum to (%d,%d), result (%d,%d)",
				v.name, tested.Load(), blocked.Load(), res.Tested, res.Blocked)
		}
		if calls.Load() == 0 {
			t.Fatalf("%s: progress callback never fired", v.name)
		}
		if v.name == "sequential" && calls.Load() < 2 {
			t.Fatalf("sequential: %d calls; stride should fire mid-sweep plus flush", calls.Load())
		}
	}
}
