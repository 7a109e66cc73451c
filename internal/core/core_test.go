package core

import (
	"strings"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestDeterministicSystemVerifies(t *testing.T) {
	s, err := NewDeterministicSystem(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != Deterministic || s.Ports() != 12 {
		t.Fatal("system metadata wrong")
	}
	rep, err := s.Verify(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Nonblocking || rep.Method != "lemma1-all-pairs" {
		t.Fatalf("verify = %+v", rep)
	}
}

func TestAdaptiveSystemVerifies(t *testing.T) {
	s, err := NewAdaptiveSystem(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify(8, 0, 0) // 8 hosts: exhaustive
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Nonblocking || rep.Method != "exhaustive-sweep" {
		t.Fatalf("verify = %+v", rep)
	}
	if rep.PatternsTested != 40320 {
		t.Fatalf("tested %d patterns", rep.PatternsTested)
	}
	// Larger instance: random sweep path.
	s2, err := NewAdaptiveSystem(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Verify(8, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Nonblocking || rep2.Method != "random-sweep" || rep2.PatternsTested == 0 {
		t.Fatalf("verify = %+v", rep2)
	}
	if _, err := NewAdaptiveSystem(1, 4); err == nil {
		t.Fatal("n=1 accepted")
	}
}

// TestSystemConstructorsRejectBadSizes pins that both constructors return
// an error, instead of panicking in the topology builder, for sizes no
// folded Clos has.
func TestSystemConstructorsRejectBadSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		new  func(n, r int) (*System, error)
		n, r int
	}{
		{"deterministic", NewDeterministicSystem, 0, 5},
		{"deterministic", NewDeterministicSystem, 2, 0},
		{"deterministic", NewDeterministicSystem, -1, 3},
		{"deterministic", NewDeterministicSystem, 2, -4},
		{"adaptive", NewAdaptiveSystem, 2, 0},
		{"adaptive", NewAdaptiveSystem, 3, -1},
		{"adaptive", NewAdaptiveSystem, 0, 4},
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s(%d, %d) panicked: %v", c.name, c.n, c.r, p)
				}
			}()
			if s, err := c.new(c.n, c.r); err == nil {
				t.Errorf("%s(%d, %d) = %+v, want an error", c.name, c.n, c.r, s)
			}
		}()
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// NewRearrangeableSystem builds the centralized baseline: ftree(n+n, r)
// with global edge-coloring routing (Benes m = n).
func NewRearrangeableSystem(n, r int) *System {
	f := topology.NewFoldedClos(n, n, r)
	return &System{F: f, Router: routing.NewGlobalRearrangeable(f), Class: GlobalRearrangeable}
}

func TestRearrangeableSystem(t *testing.T) {
	s := NewRearrangeableSystem(2, 5)
	rep, err := s.Verify(4, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Nonblocking {
		t.Fatalf("global m=n should pass sweeps: %+v", rep)
	}
	if s.Class.String() != "global-rearrangeable" {
		t.Fatal("class string wrong")
	}
}

func TestVerifyReportsBlockingWitness(t *testing.T) {
	// A deterministic system with m < n² must be caught by the exact
	// Lemma-1 method. Build it manually through the same struct.
	s, err := NewDeterministicSystem(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a blocking router on a smaller network via RoutePattern:
	// instead verify detection through a blocked pattern on dest-mod —
	// covered elsewhere. Here check RoutePattern plumbing.
	p := permutation.SwitchShift(2, 6, 1)
	a, rep, err := s.RoutePattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasContention() {
		t.Fatal("nonblocking system contended")
	}
	if len(a.Pairs) != 12 {
		t.Fatalf("pairs = %d", len(a.Pairs))
	}
}

func TestVerifyBlockingDeterministicYieldsWitness(t *testing.T) {
	// A System wrapping a blocking deterministic router must get the
	// exact verdict plus a concrete witness.
	f := topology.NewFoldedClos(2, 4, 5)
	s := &System{F: f, Router: routing.NewDestMod(f), Class: Deterministic}
	rep, err := s.Verify(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nonblocking || rep.Method != "lemma1-all-pairs" {
		t.Fatalf("verify = %+v", rep)
	}
	if !strings.Contains(rep.Detail, "blocking permutation:") {
		t.Fatalf("witness missing: %q", rep.Detail)
	}
}

func TestVerifySweepBlockingAndErrors(t *testing.T) {
	// Greedy-local (non-PairRouter): exhaustive sweep finds blocking on a
	// tiny instance.
	f := topology.NewFoldedClos(2, 2, 3)
	s := &System{F: f, Router: routing.NewGreedyLocal(f), Class: LocalAdaptive}
	rep, err := s.Verify(6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nonblocking || rep.Method != "exhaustive-sweep" || rep.Detail == "" {
		t.Fatalf("verify = %+v", rep)
	}
	// Random sweep path with blocking.
	f2 := topology.NewFoldedClos(2, 4, 5)
	s2 := &System{F: f2, Router: routing.NewGreedyLocal(f2), Class: LocalAdaptive}
	rep2, err := s2.Verify(4, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Nonblocking || rep2.Method != "random-sweep" {
		t.Fatalf("verify = %+v", rep2)
	}
	// Route errors show in Detail.
	f3 := topology.NewFoldedClos(2, 1, 3)
	ad, err := routing.NewNonblockingAdaptive(f3)
	if err != nil {
		t.Fatal(err)
	}
	s3 := &System{F: f3, Router: ad, Class: LocalAdaptive}
	rep3, err := s3.Verify(6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Nonblocking || rep3.Detail == "" {
		t.Fatalf("verify = %+v", rep3)
	}
	// RoutePattern surfaces routing errors.
	if _, _, err := s3.RoutePattern(permutation.SwitchShift(2, 3, 1)); err == nil {
		t.Fatal("expected route error")
	}
}

func TestRoutingClassString(t *testing.T) {
	if Deterministic.String() != "deterministic" ||
		LocalAdaptive.String() != "local-adaptive" ||
		!strings.Contains(RoutingClass(9).String(), "9") {
		t.Fatal("strings wrong")
	}
}

func TestPlan(t *testing.T) {
	props, err := Plan(20)
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[RoutingClass]Proposal{}
	for _, p := range props {
		byClass[p.Class] = p
		if p.MaxRadix > 20 {
			t.Errorf("%v design exceeds radix: %+v", p.Class, p)
		}
		if p.Ports != p.N*p.R || p.Switches != p.R+p.M {
			t.Errorf("%v design inconsistent: %+v", p.Class, p)
		}
	}
	det, ok := byClass[Deterministic]
	if !ok {
		t.Fatal("no deterministic proposal for radix 20")
	}
	// Radix 20 = 4+16: the Table-I design with r = 20 → 80 ports.
	if det.N != 4 || det.M != 16 || det.Ports != 80 {
		t.Fatalf("deterministic proposal = %+v", det)
	}
	reb, ok := byClass[GlobalRearrangeable]
	if !ok {
		t.Fatal("no rearrangeable proposal")
	}
	if reb.Ports <= det.Ports {
		t.Fatalf("centralized control should support more ports (%d vs %d)", reb.Ports, det.Ports)
	}
	if p := byClass[LocalAdaptive]; p.Ports < det.Ports {
		t.Fatalf("adaptive proposal %+v worse than deterministic %+v", p, det)
	}
	if _, err := Plan(1); err == nil {
		t.Fatal("radix 1 accepted")
	}
	if _, err := Plan(2); err != nil {
		t.Fatalf("radix 2 should at least fit the rearrangeable design: %v", err)
	}
	// CostPerPort helper.
	if (Proposal{}).CostPerPort() != 0 {
		t.Fatal("zero proposal cost/port")
	}
	if det.CostPerPort() <= 0 {
		t.Fatal("cost/port should be positive")
	}
}

func TestPlanAdaptiveBeatsDeterministicAtScale(t *testing.T) {
	// For a large radix the adaptive design fits a larger n (smaller m)
	// and therefore supports more ports than the deterministic one.
	props, err := Plan(600)
	if err != nil {
		t.Fatal(err)
	}
	var det, ad Proposal
	for _, p := range props {
		switch p.Class {
		case Deterministic:
			det = p
		case LocalAdaptive:
			ad = p
		}
	}
	if ad.Ports <= det.Ports {
		t.Fatalf("adaptive %d ports should exceed deterministic %d at radix 600", ad.Ports, det.Ports)
	}
}
