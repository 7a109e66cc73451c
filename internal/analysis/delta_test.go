package analysis

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// deltaRouters builds the pattern-independent router zoo the delta engine
// is property-tested against: single-path fat-tree schemes (nonblocking
// and blocking), oblivious multipath sets, and m-port n-tree routers, each
// paired with its host count.
func deltaRouters(t *testing.T) []struct {
	r     routing.Router
	hosts int
} {
	t.Helper()
	var out []struct {
		r     routing.Router
		hosts int
	}
	add := func(r routing.Router, hosts int) {
		out = append(out, struct {
			r     routing.Router
			hosts int
		}{r, hosts})
	}
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	add(paper, f.Ports())
	add(routing.NewDestMod(f), f.Ports())
	folded := topology.NewFoldedClos(2, 3, 3)
	add(routing.NewPaperDeterministicFolded(folded), folded.Ports())
	spray, err := routing.NewKSpray(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	add(spray, f.Ports())
	add(routing.NewFullSpray(folded), folded.Ports())
	tr := topology.NewMPortNTree(4, 2)
	add(routing.NewMNTDestMod(tr), tr.Hosts())
	add(pathUnion{tr.Net, routing.NewMNTDestMod(tr), routing.NewMNTRandomFixed(tr, 1)}, tr.Hosts())
	return out
}

// mustSweep runs Sweep under context.Background(), failing the test on a
// returned error.
func mustSweep(t testing.TB, r routing.Router, hosts int, s Spec) *SweepResult {
	t.Helper()
	res, _, err := Sweep(context.Background(), r, hosts, s)
	if err != nil {
		t.Fatalf("Sweep(%s, %d, %+v): %v", r.Name(), hosts, s, err)
	}
	return res
}

// oracleSweep is the full sequential sweep forced onto the scratch
// Checker: the independent reference the delta engine is tested against.
func oracleSweep(r routing.Router, hosts int) *SweepResult {
	res, _ := oracleEngine(r, hosts).sweep(context.Background(), nil, true, false, nil)
	return res
}

func sameSweepResult(t *testing.T, name string, got, want *SweepResult) {
	t.Helper()
	if got.Tested != want.Tested || got.Blocked != want.Blocked || got.MaxLinkLoad != want.MaxLinkLoad {
		t.Fatalf("%s: (%d,%d,%d), oracle (%d,%d,%d)", name,
			got.Tested, got.Blocked, got.MaxLinkLoad, want.Tested, want.Blocked, want.MaxLinkLoad)
	}
	switch {
	case (got.FirstBlocked == nil) != (want.FirstBlocked == nil):
		t.Fatalf("%s: FirstBlocked presence mismatch", name)
	case got.FirstBlocked != nil && !sameWitness(got.FirstBlocked, want.FirstBlocked):
		t.Fatalf("%s: FirstBlocked %s, oracle %s", name, got.FirstBlocked, want.FirstBlocked)
	}
	switch {
	case (got.RouteErr == nil) != (want.RouteErr == nil):
		t.Fatalf("%s: RouteErr %v vs %v", name, got.RouteErr, want.RouteErr)
	case got.RouteErr != nil && got.RouteErr.Error() != want.RouteErr.Error():
		t.Fatalf("%s: RouteErr %q, oracle %q", name, got.RouteErr, want.RouteErr)
	}
}

// TestSweepExhaustiveDeltaMatchesOracle is the headline parity property:
// for every cacheable router, the delta-swept result must equal the
// scratch-rebuild oracle's in every field — counts, max load, and the
// identity of the first blocked pattern.
func TestSweepExhaustiveDeltaMatchesOracle(t *testing.T) {
	for _, c := range deltaRouters(t) {
		if _, err := routing.BuildRouteTable(c.r, c.hosts); err != nil {
			t.Fatalf("%s: table build failed: %v", c.r.Name(), err)
		}
		got := mustSweep(t, c.r, c.hosts, Spec{})
		want := oracleSweep(c.r, c.hosts)
		sameSweepResult(t, c.r.Name(), got, want)
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// LinkLoad returns the current load of link l (zero when out of range).
func (d *DeltaChecker) LinkLoad(l int) int {
	if l < 0 || l >= len(d.load) {
		return 0
	}
	return int(d.load[l])
}

// TestDeltaCheckerLockstepWithChecker steps a DeltaChecker and a scratch
// Checker through the same Heap enumeration and compares the full
// contention state — max load, contended count, and every link's load —
// after every single swap.
func TestDeltaCheckerLockstepWithChecker(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3) // folded: plenty of contention
	r := routing.NewPaperDeterministicFolded(f)
	hosts := f.Ports()
	table, err := routing.BuildRouteTable(r, hosts)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeltaChecker(table)
	c := NewChecker(nil)
	permutation.EnumerateFullSwaps(hosts, func(p *permutation.Permutation, i, j int) bool {
		if i < 0 {
			d.Reset(p)
		} else {
			d.Swap(i, j)
		}
		if err := c.AnalyzePattern(r, p); err != nil {
			t.Fatal(err)
		}
		if d.MaxLoad() != c.MaxLoad() || d.ContendedCount() != c.ContendedCount() {
			t.Fatalf("pattern %s: delta (%d,%d), checker (%d,%d)",
				p, d.MaxLoad(), d.ContendedCount(), c.MaxLoad(), c.ContendedCount())
		}
		for l := 0; l < table.NumLinks(); l++ {
			if got, want := d.LinkLoad(l), len(c.PairsOn(topology.LinkID(l))); got != want {
				t.Fatalf("pattern %s link %d: delta load %d, checker %d", p, l, got, want)
			}
		}
		return true
	})
	// Out-of-range loads read as zero.
	if d.LinkLoad(-1) != 0 || d.LinkLoad(1<<20) != 0 {
		t.Fatal("out-of-range LinkLoad not zero")
	}
}

// TestDeltaCheckerResetPartialPattern checks Reset on partial permutations
// (Unused sources load nothing) against the scratch Checker.
func TestDeltaCheckerResetPartialPattern(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3)
	r := routing.NewPaperDeterministicFolded(f)
	table, err := routing.BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeltaChecker(table)
	c := NewChecker(nil)
	p := permutation.New(f.Ports())
	for _, pair := range []permutation.Pair{{Src: 0, Dst: 3}, {Src: 2, Dst: 1}, {Src: 5, Dst: 4}} {
		if err := p.Add(pair.Src, pair.Dst); err != nil {
			t.Fatal(err)
		}
	}
	d.Reset(p)
	if err := c.AnalyzePattern(r, p); err != nil {
		t.Fatal(err)
	}
	if d.MaxLoad() != c.MaxLoad() || d.ContendedCount() != c.ContendedCount() {
		t.Fatalf("partial pattern: delta (%d,%d), checker (%d,%d)",
			d.MaxLoad(), d.ContendedCount(), c.MaxLoad(), c.ContendedCount())
	}
	// Swapping two sources of a partial pattern (one used, one unused)
	// must stay in lockstep too.
	d.Swap(0, 1)
	q := permutation.New(f.Ports())
	for _, pair := range []permutation.Pair{{Src: 1, Dst: 3}, {Src: 2, Dst: 1}, {Src: 5, Dst: 4}} {
		if err := q.Add(pair.Src, pair.Dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AnalyzePattern(r, q); err != nil {
		t.Fatal(err)
	}
	if d.MaxLoad() != c.MaxLoad() || d.ContendedCount() != c.ContendedCount() {
		t.Fatalf("after partial swap: delta (%d,%d), checker (%d,%d)",
			d.MaxLoad(), d.ContendedCount(), c.MaxLoad(), c.ContendedCount())
	}
}

// erroringAppender routes like its inner router but fails on one pair —
// exercising the build-failure fallback: Sweep must degrade to
// the oracle and report its exact mid-enumeration routing error.
type erroringAppender struct {
	inner routing.PairLinkAppender
	src   int
	dst   int
}

func (r *erroringAppender) Name() string { return "erroring-" + r.inner.Name() }

func (r *erroringAppender) Route(p *permutation.Permutation) (*routing.Assignment, error) {
	return r.inner.Route(p)
}

func (r *erroringAppender) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	if src == r.src && dst == r.dst {
		return buf, fmt.Errorf("injected pair failure")
	}
	return r.inner.AppendPairLinks(src, dst, buf)
}

func TestSweepExhaustiveErroringRouterFallsBackToOracle(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	r := &erroringAppender{inner: paper, src: 2, dst: 5}
	if _, err := routing.BuildRouteTable(r, f.Ports()); err == nil {
		t.Fatal("table build should fail on the injected pair")
	}
	got := mustSweep(t, r, f.Ports(), Spec{})
	want := oracleSweep(r, f.Ports())
	if got.RouteErr == nil {
		t.Fatal("sweep should surface the injected failure")
	}
	if !strings.Contains(got.RouteErr.Error(), "routing pair 2->5: injected pair failure") {
		t.Fatalf("RouteErr %v", got.RouteErr)
	}
	sameSweepResult(t, r.Name(), got, want)
	// Same for the first-blocked and parallel entry points.
	sameSweepResult(t, r.Name(), mustSweep(t, r, f.Ports(), Spec{FirstBlocked: true}), want)
	sameSweepResult(t, r.Name(), mustSweep(t, r, f.Ports(), Spec{Parallel: true, Workers: 3}), &SweepResult{RouteErr: want.RouteErr})
}

func TestSweepExhaustiveFirstBlockedSemantics(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	// Nonblocking router: identical to the full sweep.
	sameSweepResult(t, "paper", mustSweep(t, paper, f.Ports(), Spec{FirstBlocked: true}), mustSweep(t, paper, f.Ports(), Spec{}))

	// Blocking routers: exactly one blocked pattern, the same FirstBlocked
	// as the full sweep, and a Tested count that stops right there. The
	// examined prefix is enumeration-order, so Tested is the 1-based index
	// of FirstBlocked in the full enumeration for both engines.
	for _, c := range deltaRouters(t) {
		full := mustSweep(t, c.r, c.hosts, Spec{})
		if full.Blocked == 0 {
			continue
		}
		fb := mustSweep(t, c.r, c.hosts, Spec{FirstBlocked: true})
		if fb.Blocked != 1 {
			t.Fatalf("%s: Blocked %d, want 1", c.r.Name(), fb.Blocked)
		}
		if fb.FirstBlocked == nil || !sameWitness(fb.FirstBlocked, full.FirstBlocked) {
			t.Fatalf("%s: FirstBlocked %s, full sweep %s", c.r.Name(), fb.FirstBlocked, full.FirstBlocked)
		}
		if fb.Tested <= 0 || fb.Tested > full.Tested {
			t.Fatalf("%s: Tested %d outside (0,%d]", c.r.Name(), fb.Tested, full.Tested)
		}
		if fb.MaxLinkLoad > full.MaxLinkLoad {
			t.Fatalf("%s: prefix MaxLinkLoad %d exceeds full %d", c.r.Name(), fb.MaxLinkLoad, full.MaxLinkLoad)
		}
		// Oracle early-exit agrees field for field.
		oracle, err := oracleEngine(c.r, c.hosts).sweep(context.Background(), nil, true, true, nil)
		if err != nil {
			t.Fatalf("%s: oracle sweep: %v", c.r.Name(), err)
		}
		sameSweepResult(t, c.r.Name(), fb, oracle)
	}
}

func TestSweepExhaustiveParallelDeltaMatchesSequential(t *testing.T) {
	for _, c := range deltaRouters(t) {
		seq := mustSweep(t, c.r, c.hosts, Spec{})
		for _, workers := range []int{1, 3, 0} {
			par := mustSweep(t, c.r, c.hosts, Spec{Parallel: true, Workers: workers})
			if par.Tested != seq.Tested || par.Blocked != seq.Blocked || par.MaxLinkLoad != seq.MaxLinkLoad {
				t.Fatalf("%s workers=%d: parallel (%d,%d,%d) vs sequential (%d,%d,%d)",
					c.r.Name(), workers, par.Tested, par.Blocked, par.MaxLinkLoad,
					seq.Tested, seq.Blocked, seq.MaxLinkLoad)
			}
			if (seq.FirstBlocked == nil) != (par.FirstBlocked == nil) {
				t.Fatalf("%s: FirstBlocked presence mismatch", c.r.Name())
			}
		}
	}
}

// patternOnlyRouter hides every pairwise interface of its inner router,
// forcing the pattern-dependent (oracle) engine on a router that would
// otherwise be delta-swept — the lever for delta-vs-oracle comparisons of
// whole search procedures.
type patternOnlyRouter struct {
	inner routing.Router
}

func (r *patternOnlyRouter) Name() string { return r.inner.Name() }

func (r *patternOnlyRouter) Route(p *permutation.Permutation) (*routing.Assignment, error) {
	return r.inner.Route(p)
}

// TestWorstCaseSearchDeltaMatchesOracle runs the adversarial hill climb
// with the delta scorer and with the per-pattern oracle (forced via
// interface hiding) on the same seed: identical RNG consumption must give
// identical results, pattern included.
func TestWorstCaseSearchDeltaMatchesOracle(t *testing.T) {
	for _, c := range deltaRouters(t) {
		sDelta := &WorstCaseSearch{Router: c.r, Hosts: c.hosts, Restarts: 3, Steps: 40, Seed: 7}
		sOracle := &WorstCaseSearch{Router: &patternOnlyRouter{inner: c.r}, Hosts: c.hosts, Restarts: 3, Steps: 40, Seed: 7}
		got, err := sDelta.Run()
		if err != nil {
			t.Fatalf("%s delta: %v", c.r.Name(), err)
		}
		want, err := sOracle.Run()
		if err != nil {
			t.Fatalf("%s oracle: %v", c.r.Name(), err)
		}
		if got.ContendedLinks != want.ContendedLinks || got.MaxLoad != want.MaxLoad || got.Evaluated != want.Evaluated {
			t.Fatalf("%s: delta (%d,%d,%d), oracle (%d,%d,%d)", c.r.Name(),
				got.ContendedLinks, got.MaxLoad, got.Evaluated,
				want.ContendedLinks, want.MaxLoad, want.Evaluated)
		}
		if !sameWitness(got.Permutation, want.Permutation) {
			t.Fatalf("%s: delta %s, oracle %s", c.r.Name(), got.Permutation, want.Permutation)
		}
	}
}

// TestDeltaCheckerSwapZeroAllocs pins the acceptance criterion that the
// steady-state delta path allocates nothing: Reset and Swap run over live
// table spans and flat counters only.
func TestDeltaCheckerSwapZeroAllocs(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeltaChecker(table)
	d.Reset(permutation.Identity(f.Ports()))
	if avg := testing.AllocsPerRun(100, func() {
		d.Swap(0, 3)
		d.Swap(1, 4)
		d.Swap(0, 3)
		d.Swap(1, 4)
		_ = d.MaxLoad() + d.ContendedCount()
	}); avg != 0 {
		t.Fatalf("Swap allocates %v per run", avg)
	}
	ident := permutation.Identity(f.Ports())
	if avg := testing.AllocsPerRun(100, func() {
		d.Reset(ident)
	}); avg != 0 {
		t.Fatalf("Reset allocates %v per run", avg)
	}
}

// TestDeltaCheckerSwapIsInvolution: applying the same swap twice must
// restore the exact contention state — the property the adversarial
// search's reject path depends on.
func TestDeltaCheckerSwapIsInvolution(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3)
	r := routing.NewPaperDeterministicFolded(f)
	table, err := routing.BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeltaChecker(table)
	d.Reset(permutation.Shift(f.Ports(), 1))
	type state struct{ max, cont int }
	before := state{d.MaxLoad(), d.ContendedCount()}
	loads := make([]int, table.NumLinks())
	for l := range loads {
		loads[l] = d.LinkLoad(l)
	}
	for i := 0; i < f.Ports(); i++ {
		for j := 0; j < f.Ports(); j++ {
			d.Swap(i, j)
			d.Swap(i, j)
			if (state{d.MaxLoad(), d.ContendedCount()}) != before {
				t.Fatalf("swap(%d,%d) twice moved summary state", i, j)
			}
			for l := range loads {
				if d.LinkLoad(l) != loads[l] {
					t.Fatalf("swap(%d,%d) twice moved load of link %d", i, j, l)
				}
			}
		}
	}
}
