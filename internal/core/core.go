// Package core assembles the paper's primary contribution into ready-to-use
// systems: a nonblocking folded-Clos network paired with the routing
// algorithm that makes it nonblocking, plus a design engine that answers
// the feasibility question the paper poses — given a switch radix, what
// nonblocking interconnects can be built, at what cost, under which
// routing class?
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/conditions"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// RoutingClass selects the control model, in increasing order of the
// information available to the router.
type RoutingClass uint8

const (
	// Deterministic is single-path deterministic routing (§IV): paths
	// are a pure function of (src, dst); nonblocking needs m ≥ n².
	Deterministic RoutingClass = iota
	// LocalAdaptive is NONBLOCKINGADAPTIVE (§V): each source switch
	// adapts to its local pattern; nonblocking with
	// m = O(n^(2−1/(2(c+1)))).
	LocalAdaptive
	// GlobalRearrangeable is the centralized baseline: the whole pattern
	// is known; m ≥ n suffices (Benes), but no distributed
	// implementation exists — included for comparison only.
	GlobalRearrangeable
)

// String names the class.
func (c RoutingClass) String() string {
	switch c {
	case Deterministic:
		return "deterministic"
	case LocalAdaptive:
		return "local-adaptive"
	case GlobalRearrangeable:
		return "global-rearrangeable"
	default:
		return fmt.Sprintf("RoutingClass(%d)", uint8(c))
	}
}

// System is a folded-Clos network paired with the router that serves it.
type System struct {
	// F is the underlying two-level folded-Clos topology.
	F *topology.FoldedClos
	// Router routes patterns over F.
	Router routing.Router
	// Class records the control model.
	Class RoutingClass
}

// NewDeterministicSystem builds the Theorem-3 nonblocking system:
// ftree(n+n², r) with the paper's single-path deterministic routing.
func NewDeterministicSystem(n, r int) (*System, error) {
	f := topology.NewFoldedClos(n, n*n, r)
	rt, err := routing.NewPaperDeterministic(f)
	if err != nil {
		return nil, err
	}
	return &System{F: f, Router: rt, Class: Deterministic}, nil
}

// NewAdaptiveSystem builds the §V nonblocking system: ftree(n+m, r) with
// NONBLOCKINGADAPTIVE and m set to the simple worst-case budget
// ⌈n/(c+2)⌉·(c+1)·n (always sufficient; usually generous — measured
// demand is reported per pattern by the router).
func NewAdaptiveSystem(n, r int) (*System, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: adaptive systems need n >= 2")
	}
	c := conditions.SmallestC(n, r)
	m := conditions.AdaptiveSimpleM(n, c)
	f := topology.NewFoldedClos(n, m, r)
	rt, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		return nil, err
	}
	return &System{F: f, Router: rt, Class: LocalAdaptive}, nil
}

// NewRearrangeableSystem builds the centralized baseline: ftree(n+n, r)
// with global edge-coloring routing (Benes m = n).
func NewRearrangeableSystem(n, r int) *System {
	f := topology.NewFoldedClos(n, n, r)
	return &System{F: f, Router: routing.NewGlobalRearrangeable(f), Class: GlobalRearrangeable}
}

// Ports reports the system's host count.
func (s *System) Ports() int { return s.F.Ports() }

// VerifyReport is the outcome of a nonblocking verification.
type VerifyReport struct {
	// Method describes how the verdict was reached.
	Method string
	// Nonblocking is the verdict.
	Nonblocking bool
	// Detail is a counterexample description when blocking, else empty.
	Detail string
	// PatternsTested counts patterns routed by sweep methods (0 for the
	// exact Lemma-1 method).
	PatternsTested int
}

// Verify checks the system's nonblocking property. Deterministic systems
// get the exact Lemma-1 all-pairs decision; adaptive and global systems
// get an exhaustive sweep when the network is tiny (ports ≤ maxExhaustive)
// and a seeded randomized+structured sweep otherwise.
func (s *System) Verify(maxExhaustive, randomTrials int, seed int64) (*VerifyReport, error) {
	if pr, ok := s.Router.(routing.PairRouter); ok {
		res, err := analysis.CheckLemma1AllPairs(pr, s.Ports())
		if err != nil {
			return nil, err
		}
		rep := &VerifyReport{Method: "lemma1-all-pairs", Nonblocking: res.Nonblocking}
		if !res.Nonblocking {
			w, err := analysis.BlockingWitness(res, s.Ports())
			if err != nil {
				return nil, err
			}
			rep.Detail = fmt.Sprintf("blocking permutation: %s", w)
		}
		return rep, nil
	}
	method := "random-sweep"
	var res *analysis.SweepResult
	var err error
	if s.Ports() <= maxExhaustive {
		method = "exhaustive-sweep"
		res, _, err = analysis.Sweep(context.Background(), s.Router, s.Ports(), analysis.Spec{})
	} else {
		res, err = analysis.SweepRandomCtx(context.Background(), s.Router, s.Ports(), randomTrials, seed)
	}
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{Method: method, Nonblocking: res.Nonblocking(), PatternsTested: res.Tested}
	if res.FirstBlocked != nil {
		rep.Detail = fmt.Sprintf("blocking permutation: %s", res.FirstBlocked)
	}
	if res.RouteErr != nil {
		rep.Detail = res.RouteErr.Error()
	}
	return rep, nil
}

// RoutePattern routes one permutation and reports contention.
func (s *System) RoutePattern(p *permutation.Permutation) (*routing.Assignment, *analysis.Report, error) {
	a, err := s.Router.Route(p)
	if err != nil {
		return nil, nil, err
	}
	return a, analysis.Check(a), nil
}

// Proposal is one feasible design produced by the planner.
type Proposal struct {
	// Class is the routing class the design relies on.
	Class RoutingClass
	// N, M, R are the ftree(n+m, r) parameters.
	N, M, R int
	// Ports and Switches quantify the design.
	Ports, Switches int
	// MaxRadix is the largest switch radix the design requires.
	MaxRadix int
	// Note explains the condition backing the design.
	Note string
}

// CostPerPort is switches per host port.
func (p Proposal) CostPerPort() float64 {
	if p.Ports == 0 {
		return 0
	}
	return float64(p.Switches) / float64(p.Ports)
}

// Plan enumerates the best two-level nonblocking designs buildable from
// switches of the given radix for each routing class: for every feasible
// n it sizes m by the class's nonblocking condition, sets r to the largest
// value the top-switch radix allows (r = radix), and keeps the design with
// the most ports per class. It answers the paper's feasibility question
// directly.
func Plan(radix int) ([]Proposal, error) {
	if radix < 2 {
		return nil, fmt.Errorf("core: radix %d too small", radix)
	}
	best := map[RoutingClass]Proposal{}
	consider := func(p Proposal) {
		if cur, ok := best[p.Class]; !ok || p.Ports > cur.Ports ||
			(p.Ports == cur.Ports && p.Switches < cur.Switches) {
			best[p.Class] = p
		}
	}
	for n := 1; n <= radix-1; n++ {
		r := radix // top switches have radix r
		// Deterministic: m = n², bottom radix n+n².
		if n+n*n <= radix && r >= 2*n+1 {
			consider(Proposal{
				Class: Deterministic, N: n, M: n * n, R: r,
				Ports: n * r, Switches: r + n*n,
				MaxRadix: maxInt(n+n*n, r),
				Note:     "Theorem 3: m = n² single-path deterministic",
			})
		}
		// Local adaptive: m per the simple §V budget.
		if n >= 2 {
			c := conditions.SmallestC(n, r)
			m := conditions.AdaptiveSimpleM(n, c)
			if n+m <= radix {
				consider(Proposal{
					Class: LocalAdaptive, N: n, M: m, R: r,
					Ports: n * r, Switches: r + m,
					MaxRadix: maxInt(n+m, r),
					Note:     fmt.Sprintf("§V: m = ⌈n/(c+2)⌉(c+1)n with c = %d", c),
				})
			}
		}
		// Global rearrangeable (reference only): m = n.
		if 2*n <= radix {
			consider(Proposal{
				Class: GlobalRearrangeable, N: n, M: n, R: r,
				Ports: n * r, Switches: r + n,
				MaxRadix: maxInt(2*n, r),
				Note:     "Benes m = n; requires centralized control",
			})
		}
	}
	res := make([]Proposal, 0, len(best))
	for _, cls := range []RoutingClass{Deterministic, LocalAdaptive, GlobalRearrangeable} {
		if p, ok := best[cls]; ok {
			res = append(res, p)
		}
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("core: no nonblocking design fits radix %d", radix)
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
