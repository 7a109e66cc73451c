package analysis

import (
	"context"
	"errors"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// touchRouter routes like its inner router and counts every routing call,
// pairwise or whole-pattern.
type touchRouter struct {
	inner routing.PairLinkAppender
	calls int
}

func (r *touchRouter) Name() string { return "touch-" + r.inner.Name() }

func (r *touchRouter) Route(p *permutation.Permutation) (*routing.Assignment, error) {
	r.calls++
	return r.inner.Route(p)
}

func (r *touchRouter) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	r.calls++
	return r.inner.AppendPairLinks(src, dst, buf)
}

// TestSweepSpecRejectsUnsupported pins the combinations no engine
// implements: each is an error raised before the router is touched, never
// a silently ignored field. Bad shard prefixes are rejected just as early.
func TestSweepSpecRejectsUnsupported(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	r := &touchRouter{inner: paper}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"workers without parallel", Spec{Workers: 2}},
		{"parallel first-blocked", Spec{Parallel: true, FirstBlocked: true}},
		{"sym parallel first-blocked", Spec{SymBlock: 2, Parallel: true, FirstBlocked: true}},
		{"prefix parallel", Spec{Prefix: []int{0}, Parallel: true}},
		{"prefix sym", Spec{Prefix: []int{0}, SymBlock: 2}},
		{"prefix sym shard", Spec{Prefix: []int{0}, SymShard: []int{0, 1}}},
		{"sym shard first-blocked", Spec{SymBlock: 2, SymShard: []int{0, 1}, FirstBlocked: true}},
		{"sym shard parallel", Spec{SymBlock: 2, SymShard: []int{0, 1}, Parallel: true}},
		{"sym shard not a range", Spec{SymBlock: 2, SymShard: []int{0}}},
		{"prefix out of range", Spec{Prefix: []int{f.Ports()}}},
		{"prefix repeated", Spec{Prefix: []int{1, 1}}},
	} {
		res, stats, err := Sweep(context.Background(), r, f.Ports(), tc.spec)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if res == nil || res.Tested != 0 {
			t.Fatalf("%s: result %+v", tc.name, res)
		}
		if sym := tc.spec.SymBlock != 0 || tc.spec.SymShard != nil; (stats != nil) != sym || sym && stats.Orbits != 0 {
			t.Fatalf("%s: stats %+v", tc.name, stats)
		}
		if r.calls != 0 {
			t.Fatalf("%s: routed %d times before rejecting the spec", tc.name, r.calls)
		}
	}
}

// TestSweepSymStatsPresence: SymStats is non-nil exactly when the spec
// asks for a symmetry reduction — applied, fallen back, or cancelled
// before the first pattern.
func TestSweepSymStatsPresence(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3)
	spray := routing.NewFullSpray(f)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		r    routing.Router
		spec Spec
		sym  bool
	}{
		{"plain", context.Background(), spray, Spec{}, false},
		{"parallel", context.Background(), spray, Spec{Parallel: true}, false},
		{"shard", context.Background(), spray, Spec{Prefix: []int{1}}, false},
		{"sym applied", context.Background(), spray, Spec{SymBlock: 2}, true},
		{"sym fallback", context.Background(), routing.NewRandomFixed(f, 3), Spec{SymBlock: 2}, true},
		{"sym shard", context.Background(), spray, Spec{SymBlock: 2, SymShard: []int{0, 1}}, true},
		{"sym cancelled", cancelled, spray, Spec{SymBlock: 2}, true},
	} {
		_, stats, err := Sweep(tc.ctx, tc.r, f.Ports(), tc.spec)
		if tc.ctx == cancelled {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err %v", tc.name, err)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (stats != nil) != tc.sym {
			t.Fatalf("%s: stats %+v, want present=%t", tc.name, stats, tc.sym)
		}
	}
}

// BenchmarkSweepExhaustiveOracle times the 8! sweep of ftree(4+16, 2)
// forced onto the per-pattern reference engine — the delta engine's
// parity oracle — for comparison with nbbench's SweepExhaustive row
// (BenchmarkGated/SweepExhaustive in cmd/nbbench).
func BenchmarkSweepExhaustiveOracle(b *testing.B) {
	f := topology.NewFoldedClos(4, 16, 2)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := oracleSweep(r, f.Ports()); !res.Nonblocking() {
			b.Fatal("paper routing blocked")
		}
	}
}
