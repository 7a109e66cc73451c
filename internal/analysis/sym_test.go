package analysis

import (
	"context"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// symCase pairs a router with its fabric geometry: hosts and the
// hosts-per-bottom-switch block size the symmetry group acts on.
type symCase struct {
	name      string
	r         routing.Router
	hosts     int
	blockSize int
}

// symRouters is the router zoo the symmetry engine is property-tested
// against: fully symmetric multipath schemes (where the reduction must
// engage), asymmetric deterministic schemes (where the equivariance
// certificate decides), a seeded random routing (certain to fail the
// certificate), and a pattern-dependent adaptive scheme (no route table
// at all). Every case must produce byte-identical results either way.
func symRouters(t *testing.T) []symCase {
	t.Helper()
	var out []symCase
	add := func(name string, r routing.Router, hosts, blockSize int) {
		out = append(out, symCase{name, r, hosts, blockSize})
	}
	f63 := topology.NewFoldedClos(2, 4, 3) // 6 hosts, blocks of 2, nonblocking m
	f33 := topology.NewFoldedClos(2, 3, 3) // folded variant: plenty of contention
	f24 := topology.NewFoldedClos(2, 2, 4) // 8 hosts, blocks of 2, blocking m
	f32 := topology.NewFoldedClos(3, 4, 2) // 6 hosts, blocks of 3
	paper, err := routing.NewPaperDeterministic(f63)
	if err != nil {
		t.Fatal(err)
	}
	add("paper", paper, f63.Ports(), 2)
	add("paper-folded", routing.NewPaperDeterministicFolded(f33), f33.Ports(), 2)
	add("dest-mod", routing.NewDestMod(f63), f63.Ports(), 2)
	add("dest-mod-blocking", routing.NewDestMod(f24), f24.Ports(), 2)
	add("source-mod", routing.NewSourceMod(f32), f32.Ports(), 3)
	add("full-spray", routing.NewFullSpray(f33), f33.Ports(), 2)
	add("full-spray-8", routing.NewFullSpray(f24), f24.Ports(), 2)
	kspray, err := routing.NewKSpray(f63, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("spray-2", kspray, f63.Ports(), 2)
	add("random-fixed", routing.NewRandomFixed(f24, 7), f24.Ports(), 2)
	adaptive, err := routing.NewNonblockingAdaptive(f63)
	if err != nil {
		t.Fatal(err)
	}
	add("adaptive", adaptive, f63.Ports(), 2)
	tr := topology.NewMPortNTree(4, 2)
	add("mnt-dest-mod", routing.NewMNTDestMod(tr), tr.Hosts(), tr.Hosts()/2)
	return out
}

// mustSweepSym is mustSweep for a symmetry-reduced spec, also returning
// the SymStats every such sweep must report.
func mustSweepSym(t *testing.T, r routing.Router, hosts int, s Spec) (*SweepResult, *SymStats) {
	t.Helper()
	res, stats, err := Sweep(context.Background(), r, hosts, s)
	if err != nil || stats == nil {
		t.Fatalf("Sweep(%s, %d, %+v): stats %v, err %v", r.Name(), hosts, s, stats, err)
	}
	return res, stats
}

// TestSweepExhaustiveSymMatchesOracle is the acceptance property: across
// the whole zoo — whether the reduction engages or falls back — the sym
// sweep's result equals the scratch oracle's in every field.
func TestSweepExhaustiveSymMatchesOracle(t *testing.T) {
	for _, c := range symRouters(t) {
		want := oracleSweep(c.r, c.hosts)
		got, stats := mustSweepSym(t, c.r, c.hosts, Spec{SymBlock: c.blockSize})
		sameSweepResult(t, c.name, got, want)
		if stats.Applied && stats.Orbits == 0 && c.hosts > 0 {
			t.Fatalf("%s: applied with zero orbits", c.name)
		}
		if !stats.Applied && stats.Reason == "" {
			t.Fatalf("%s: fallback without a reason", c.name)
		}
		wantFB := mustSweep(t, c.r, c.hosts, Spec{FirstBlocked: true})
		gotFB, _ := mustSweepSym(t, c.r, c.hosts, Spec{SymBlock: c.blockSize, FirstBlocked: true})
		sameSweepResult(t, c.name+"/first-blocked", gotFB, wantFB)
	}
}

// TestSweepExhaustiveSymParallelOrder checks the parallel-flavored sym
// sweep against the in-process parallel engine, whose FirstBlocked comes
// from the lowest level-1 prefix shard rather than Heap order.
func TestSweepExhaustiveSymParallelOrder(t *testing.T) {
	for _, c := range symRouters(t) {
		want := mustSweep(t, c.r, c.hosts, Spec{Parallel: true, Workers: 4})
		got, _, err := SweepExhaustiveSymParallelProgressCtx(context.Background(), c.r, c.hosts, c.blockSize, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameSweepResult(t, c.name+"/parallel", got, want)
	}
}

// TestSymEngagesWhereExpected pins which zoo members actually reduce: the
// fully symmetric sprays must engage, and pattern-dependent adaptive
// routing plus seeded-random fixed paths must not.
func TestSymEngagesWhereExpected(t *testing.T) {
	for _, c := range symRouters(t) {
		stats := SymApplicable(c.r, c.hosts, c.blockSize)
		switch c.name {
		case "full-spray", "full-spray-8":
			if !stats.Applied {
				t.Errorf("%s: expected symmetry to engage, fell back: %s", c.name, stats.Reason)
			}
		case "adaptive", "random-fixed":
			if stats.Applied {
				t.Errorf("%s: expected fallback, symmetry engaged", c.name)
			}
		}
	}
}

// TestSymProgressSumsToCounters checks the orbit-scaled progress deltas
// sum exactly to the final counters, applied or not.
func TestSymProgressSumsToCounters(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3)
	for _, r := range []routing.Router{routing.NewFullSpray(f), routing.NewRandomFixed(f, 3)} {
		tested, blocked := 0, 0
		res, _, err := SweepExhaustiveSymParallelProgressCtx(context.Background(), r, f.Ports(), 2, 1, func(dt, db int) {
			tested += dt
			blocked += db
		})
		if err != nil {
			t.Fatal(err)
		}
		if tested != res.Tested || blocked != res.Blocked {
			t.Fatalf("%s: progress deltas (%d,%d) != counters (%d,%d)", r.Name(), tested, blocked, res.Tested, res.Blocked)
		}
	}
}

// TestSweepSymShardParity: sharded orbit sweeps merge to the unsharded
// counters, and the re-derived witness matches the parallel engine's.
func TestSweepSymShardParity(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		f         *topology.FoldedClos
		blockSize int
	}{
		{topology.NewFoldedClos(2, 3, 3), 2},
		{topology.NewFoldedClos(2, 2, 4), 2},
	} {
		r := routing.NewFullSpray(tc.f)
		hosts := tc.f.Ports()
		sym, err := permutation.NewBlockSymmetry(hosts, tc.blockSize)
		if err != nil {
			t.Fatal(err)
		}
		merged := &SweepResult{}
		orbits := 0
		for _, sh := range sym.Shards(3) {
			res, stats, err := SweepSymShardCtx(ctx, r, hosts, tc.blockSize, sh[0], sh[1], nil)
			if err != nil {
				t.Fatalf("shard %v: %v", sh, err)
			}
			orbits += stats.Orbits
			merged.Tested += res.Tested
			merged.Blocked += res.Blocked
			if res.MaxLinkLoad > merged.MaxLinkLoad {
				merged.MaxLinkLoad = res.MaxLinkLoad
			}
		}
		full, stats := mustSweepSym(t, r, hosts, Spec{SymBlock: tc.blockSize})
		if !stats.Applied {
			t.Fatalf("spray fell back: %s", stats.Reason)
		}
		if merged.Tested != full.Tested || merged.Blocked != full.Blocked || merged.MaxLinkLoad != full.MaxLinkLoad || orbits != stats.Orbits {
			t.Fatalf("sharded merge (%d,%d,%d,%d orbits) != full (%d,%d,%d,%d orbits)",
				merged.Tested, merged.Blocked, merged.MaxLinkLoad, orbits,
				full.Tested, full.Blocked, full.MaxLinkLoad, stats.Orbits)
		}
		if merged.Blocked > 0 {
			w, err := SweepSymWitness(ctx, r, hosts, true)
			if err != nil {
				t.Fatal(err)
			}
			want := mustSweep(t, r, hosts, Spec{Parallel: true, Workers: 4})
			if w == nil || !sameWitness(w, want.FirstBlocked) {
				t.Fatalf("re-derived witness %s != parallel witness %s", w, want.FirstBlocked)
			}
		}
	}
}

// TestSweepSymShardRejectsInapplicable: sym shards are planned only after
// an applicability precheck, so a worker asked to sweep one for an
// inapplicable router must error rather than silently fall back.
func TestSweepSymShardRejectsInapplicable(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 4)
	if _, _, err := SweepSymShardCtx(context.Background(), routing.NewRandomFixed(f, 1), f.Ports(), 2, 0, 1, nil); err == nil {
		t.Fatal("inapplicable sym shard did not error")
	}
}

// TestSymMatchesDeltaAtNine runs the n=9 wall itself: the sym sweep must
// reproduce the full delta engine's certificate while touching ~800x
// fewer patterns.
func TestSymMatchesDeltaAtNine(t *testing.T) {
	f := topology.NewFoldedClos(3, 5, 3) // 9 hosts, m = 2n-1: nonblocking spray fabric
	r := routing.NewFullSpray(f)
	want := mustSweep(t, r, f.Ports(), Spec{})
	got, stats := mustSweepSym(t, r, f.Ports(), Spec{SymBlock: 3})
	sameSweepResult(t, "spray-n9", got, want)
	if !stats.Applied {
		t.Fatalf("sym fell back at n=9: %s", stats.Reason)
	}
	if stats.Orbits >= want.Tested/100 {
		t.Fatalf("weak reduction: %d orbits for %d patterns", stats.Orbits, want.Tested)
	}
}

// TestSymCancellation: a pre-cancelled context stops the sweep
// immediately with ctx.Err.
func TestSymCancellation(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SweepExhaustiveSymCtx(ctx, routing.NewFullSpray(f), f.Ports(), 2); err == nil {
		t.Fatal("cancelled sym sweep returned nil error")
	}
}
