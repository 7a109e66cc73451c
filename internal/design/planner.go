package design

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/api"
	"repro/internal/conditions"
)

// pairRouterNames lists the single-path deterministic routings, for which
// mode auto runs the exact Lemma-1 analysis at any size. Multipath
// routers get an exact verdict only from an exhaustive sweep (hosts ≤
// max_exhaustive); beyond that the randomized engine's verdict is
// empirical. This mirrors runVerify's engine selection.
var pairRouterNames = map[string]bool{
	"paper": true, "paper-folded": true, "dest-mod": true, "source-mod": true,
	"dest-switch-mod": true, "random-fixed": true,
	"mnt-dest-mod": true, "mnt-random": true,
}

// cond is a candidate's certificate condition. Its Condition string and
// Citation are rendered only for frontier points (certificate).
type cond uint8

const (
	condMultilevel cond = iota
	condMntRearrangeable
	condAdaptiveTheorem5
	condAdaptiveBand
	condPaperTheorem3
	condFoldedTheorem3
	condBenes
	condOutOfRange
	condDetTheorem2
	condDetInfeasible
	condDetSmallR
	condPigeonhole
	condDominated
	condInfeasible
	// Group conditions: ref indexes p.groups.
	condAboveMinM
	condNoMinM
	condBelowMinM
	// Probe conditions: ref indexes p.probes.
	condProbeNonblocking
	condProbeEmpirical
	condProbeBlocking
)

// groupKey identifies one monotone family: fixed (n, r, router) on ftree,
// with m the searched dimension.
type groupKey struct {
	n, r   int32
	router uint8
}

// group is the result of one tier-1 binary search: the smallest m in
// [n, hiTop] whose probe verdict is nonblocking (minM = hiTop+1 when the
// whole domain is blocking), the guarantee level that verdict certifies,
// and the boundary replays.
type group struct {
	hiTop int
	minM  int
	level int
	// upper is the probe at minM and lower the one at minM−1 (none when
	// minM = n: pigeonhole). A zero Request.M marks a probe not taken;
	// probes have m ≥ n ≥ 1.
	upper  api.DesignReplay
	lower  api.DesignReplay
	upKey  string
	freshM map[int]bool // m values freshly verified by this search
}

// probeResult is the evidence of one candidate's own probe.
type probeResult struct {
	replay api.DesignReplay
	key    string
	method string
}

// hostsAtLevel records, for each guarantee level l, the most hosts of any
// added point with level ≥ l: covers answers "does an added point have
// level ≥ l and hosts ≥ h" without scanning the points.
type hostsAtLevel [4]struct {
	hosts int
	ok    bool
}

func (h *hostsAtLevel) add(level, hosts int) {
	for l := 0; l <= level; l++ {
		if !h[l].ok || hosts > h[l].hosts {
			h[l].hosts, h[l].ok = hosts, true
		}
	}
}

func (h *hostsAtLevel) covers(level, hosts int) bool {
	return h[level].ok && h[level].hosts >= hosts
}

type planner struct {
	cat  *api.DesignCatalog
	v    api.DesignVerify
	opts Options
	rep  *api.DesignReport

	// routers names the candidates' router indices.
	routers []string
	// adaptMin caches the Theorem-5 budget per (n, r) of the catalog axes,
	// 0 until first use.
	adaptMin []int
	groupIdx map[groupKey]int32
	groups   []*group
	probes   []probeResult
	keyBuf   []byte
	// decided holds every settled, unpruned point. Processing is in
	// ascending cost order, so each costs no more than the candidate under
	// test, and only its level-2 and level-3 entries can prune.
	decided hostsAtLevel
}

// Plan enumerates the catalog and decides every candidate through the
// three-tier planner, returning the effectiveness counters and the Pareto
// frontier. The report is deterministic for a fixed catalog and options.
func Plan(ctx context.Context, cat *api.DesignCatalog, opts Options) (*api.DesignReport, error) {
	if err := ValidateCatalog(cat); err != nil {
		return nil, err
	}
	p := &planner{cat: cat, v: resolvedVerify(cat), opts: opts, groupIdx: make(map[groupKey]int32)}
	cands, err := p.enumerate()
	if err != nil {
		return nil, err
	}
	p.rep = &api.DesignReport{Candidates: len(cands)}
	// Cost-ascending processing order: cheaper points decide first so the
	// dominance check only ever looks backwards. Ties break by host count
	// (bigger first, so it can dominate same-cost smaller points) and
	// then by enumeration order (the index in cands), keeping the whole
	// run deterministic.
	order := make([]int32, len(cands))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &cands[i], &cands[j]
		switch {
		case a.cost < b.cost:
			return -1
		case a.cost > b.cost:
			return 1
		case a.hosts > b.hosts:
			return -1
		case a.hosts < b.hosts:
			return 1
		}
		return int(i - j)
	})
	for k, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.decide(ctx, &cands[i]); err != nil {
			return nil, err
		}
		if opts.Logf != nil && (k+1)%2000 == 0 {
			opts.Logf("design: %d/%d candidates decided (%d fresh runs)", k+1, len(cands), p.rep.FreshRuns)
		}
	}
	p.rep.Frontier = p.frontier(cands, order)
	return p.rep, nil
}

// frontier renders the non-dominated points of the cost-ascending order: a
// point is dropped when an already-kept point has hosts ≥ and level ≥ (its
// cost is ≤ by the iteration order). A point kept after one of equal cost
// and hosts has the higher level, so it replaces that one. Non-strict
// comparison makes the first of an exact tie win, so the result is
// deterministic — and identical with or without pruning, because a pruned
// candidate's dominator satisfies the same inequalities its own entry
// would have to beat.
func (p *planner) frontier(cands []candidate, order []int32) []api.DesignPoint {
	var kept hostsAtLevel
	var keptIdx []int32
	for _, i := range order {
		c := &cands[i]
		if c.cond == condDominated || kept.covers(int(c.level), c.hosts) {
			continue
		}
		if k := len(keptIdx) - 1; k >= 0 && cands[keptIdx[k]].cost == c.cost && cands[keptIdx[k]].hosts == c.hosts {
			keptIdx = keptIdx[:k]
		}
		kept.add(int(c.level), c.hosts)
		keptIdx = append(keptIdx, i)
	}
	pts := make([]api.DesignPoint, len(keptIdx))
	for k, i := range keptIdx {
		pts[k] = p.render(&cands[i])
	}
	return pts
}

// settle finalizes a candidate's decision and updates the tier counters.
func (p *planner) settle(c *candidate, tier, level int, cd cond) {
	c.tier, c.level, c.cond = int8(tier), int8(level), cd
	switch tier {
	case 0:
		p.rep.Tier0++
	case 1:
		p.rep.Tier1++
	default:
		p.rep.Tier2++
	}
	if cd != condDominated {
		p.decided.add(level, c.hosts)
	}
}

// optimisticLevel is the best guarantee a not-yet-verified candidate
// could still reach: 3 when an exact engine applies (single-path router,
// or a fabric small enough for an exhaustive sweep), 2 when only the
// randomized engine would run.
func (p *planner) optimisticLevel(c *candidate) int {
	if pairRouterNames[p.routers[c.router]] || c.hosts <= p.v.MaxExhaustive {
		return 3
	}
	return 2
}

// decide runs one candidate through the tiers.
func (p *planner) decide(ctx context.Context, c *candidate) error {
	if p.tier0(c) {
		return nil
	}
	// Tier 1a: dominance. A decided point with cost ≤, hosts ≥, and level
	// ≥ everything this candidate could achieve keeps it off the frontier
	// no matter how verification would come out — skip the verification.
	if !p.opts.NoPrune && p.decided.covers(p.optimisticLevel(c), c.hosts) {
		p.rep.Pruned++
		p.settle(c, 1, 0, condDominated)
		return nil
	}
	switch c.family {
	case famFtree:
		return p.decideFtreeVerified(ctx, c)
	case famMnt:
		q := p.mntRequest(int(c.ports), int(c.levels), p.routers[c.router])
		return p.settleByProbe(ctx, c, q)
	}
	// xgft and multilevel are always decided at tier 0.
	pt := p.render(c)
	return fmt.Errorf("design: internal: %s candidate %s fell through tier 0", pt.Family, pt.Name)
}

// theorem5M is the Theorem-5 budget AdaptiveTheorem5M(n, SmallestC(n, r))
// of an ftree or xgft candidate with n ≥ 2, computed once per (n, r).
func (p *planner) theorem5M(c *candidate) int {
	nAx, rAx := axis(p.cat.N, defaultN), axis(p.cat.R, defaultR)
	if p.adaptMin == nil {
		p.adaptMin = make([]int, axisLen(nAx)*axisLen(rAx))
	}
	i := (int(c.n)-nAx.Min)*axisLen(rAx) + int(c.r) - rAx.Min
	if p.adaptMin[i] == 0 {
		n := int(c.n)
		p.adaptMin[i] = conditions.AdaptiveTheorem5M(n, conditions.SmallestC(n, int(c.r)))
	}
	return p.adaptMin[i]
}

// tier0 decides a candidate from closed forms alone. Returns false when
// the candidate needs verification.
func (p *planner) tier0(c *candidate) bool {
	n, m := int(c.n), int(c.m)
	switch c.family {
	case famMultilevel:
		p.settle(c, 0, 3, condMultilevel)
		return true
	case famMnt:
		// The telephone-sense floor is free; whether a sweep can say more
		// is tier 2's business.
		if !p.eligible(c.hosts) {
			p.settle(c, 0, 1, condMntRearrangeable)
			return true
		}
		return false
	}
	// ftree and xgft share the closed forms: XGFT(2; n, r; 1, m) is
	// ftree(n+m, r) in Öhring's notation.
	switch p.routers[c.router] {
	case "deterministic":
		p.settleDeterministic(c)
		return true
	case "adaptive":
		if n < 2 {
			// n = 1: one host per switch; m ≥ 1 deterministic routing is
			// already nonblocking, and SmallestC is undefined.
			p.settleDeterministic(c)
			return true
		}
		switch {
		case m >= p.theorem5M(c):
			p.settle(c, 0, 3, condAdaptiveTheorem5)
		case m < conditions.UplinkPigeonholeMinM(n):
			p.settle(c, 0, 0, condPigeonhole)
		default:
			// The band between n and the Theorem-5 budget stays
			// closed-form: a sweep cannot decide it, because
			// NONBLOCKINGADAPTIVE's planner errors (rather than producing
			// a contended assignment) on patterns whose configuration need
			// exceeds m.
			p.settle(c, 0, 1, condAdaptiveBand)
		}
		return true
	case "paper":
		// The Theorem-3 scheme is the construction behind Theorem 2: it
		// exists exactly when m ≥ n², so this router never needs a sweep.
		switch {
		case m >= conditions.DeterministicMinM(n):
			p.settle(c, 0, 3, condPaperTheorem3)
		case m < conditions.UplinkPigeonholeMinM(n):
			p.settle(c, 0, 0, condPigeonhole)
		default:
			p.settle(c, 0, 1, condBenes)
		}
		return true
	case "paper-folded":
		if m >= conditions.DeterministicMinM(n) {
			// Folding modulo m is the identity when m ≥ n²: same scheme,
			// same Theorem-3 guarantee.
			p.settle(c, 0, 3, condFoldedTheorem3)
			return true
		}
	}
	// Concrete routers below their closed-form regime.
	if m < conditions.UplinkPigeonholeMinM(n) {
		p.settle(c, 0, 0, condPigeonhole)
		return true
	}
	if !p.eligible(c.hosts) {
		p.settle(c, 0, 1, condOutOfRange)
		return true
	}
	return false
}

// settleDeterministic applies Theorems 1–3 to the abstract single-path
// deterministic discipline.
func (p *planner) settleDeterministic(c *candidate) {
	n, m, r := int(c.n), int(c.m), int(c.r)
	switch {
	case m >= conditions.DeterministicMinM(n):
		p.settle(c, 0, 3, condDetTheorem2)
	case conditions.IsDeterministicNonblockingFeasible(n, m, r):
		// r < 2n+1 band: above the Theorem-1 necessary bound
		// ⌈(r−1)n/2⌉ but below the n² construction — feasibility open.
		p.settle(c, 0, 1, condDetSmallR)
	case m < conditions.UplinkPigeonholeMinM(n):
		p.settle(c, 0, 0, condPigeonhole)
	default:
		p.settle(c, 0, 1, condDetInfeasible)
	}
}

// certificate renders a decided candidate's certificate, all but its tier.
func (p *planner) certificate(c *candidate, router string) api.DesignCertificate {
	n, m, r := int(c.n), int(c.m), int(c.r)
	switch c.cond {
	case condMultilevel:
		return api.DesignCertificate{Condition: "multilevel-recursive",
			Citation: "Discussion: recursive replacement of top-level switches with two-level nonblocking ftrees stays nonblocking at every scale"}
	case condMntRearrangeable:
		return api.DesignCertificate{Condition: "mnt-rearrangeable",
			Citation: "FT(N, l) is rearrangeably nonblocking in the telephone sense (Table I) but blocking under distributed control"}
	case condAdaptiveTheorem5:
		cDigits := conditions.SmallestC(n, r)
		return api.DesignCertificate{Condition: "adaptive-theorem5",
			Citation: fmt.Sprintf("Theorem 5: NONBLOCKINGADAPTIVE is nonblocking with m ≥ T(n)·(c+1)·n = %d (c = %d)", conditions.AdaptiveTheorem5M(n, cDigits), cDigits)}
	case condAdaptiveBand:
		return api.DesignCertificate{Condition: "adaptive-band-rearrangeable",
			Citation: "below the Theorem-5 budget no closed form decides NONBLOCKINGADAPTIVE; certified rearrangeable only (Benes 1962, m ≥ n)"}
	case condPaperTheorem3:
		return api.DesignCertificate{Condition: "paper-theorem3",
			Citation: "Theorem 3: route (v,i)→(w,j) through top switch i·n+j; nonblocking for every permutation when m ≥ n²"}
	case condFoldedTheorem3:
		return api.DesignCertificate{Condition: "paper-theorem3",
			Citation: "Theorem 3: with m ≥ n² the folded scheme equals the (i,j) ↦ i·n+j assignment, nonblocking for every permutation"}
	case condBenes:
		return api.DesignCertificate{Condition: "rearrangeable-benes",
			Citation: "Theorem-3 scheme needs m ≥ n²; below it the fabric is certified rearrangeable only (Benes 1962, m ≥ n)"}
	case condOutOfRange:
		return api.DesignCertificate{Condition: "verify-out-of-range",
			Citation: fmt.Sprintf("%d hosts exceed the tier-2 budget (max_hosts %d); certified rearrangeable only (Benes 1962, m ≥ n)", c.hosts, p.v.MaxHosts)}
	case condDetTheorem2:
		return api.DesignCertificate{Condition: "det-theorem2",
			Citation: fmt.Sprintf("Theorem 2: m ≥ n² = %d suffices for single-path deterministic routing (construction: Theorem 3)", conditions.DeterministicMinM(n))}
	case condDetInfeasible:
		return api.DesignCertificate{Condition: "det-theorem1-infeasible",
			Citation: "Theorems 1–3: no single-path deterministic routing is nonblocking at this m; certified rearrangeable only (Benes 1962, m ≥ n)"}
	case condDetSmallR:
		return api.DesignCertificate{Condition: "det-small-r-band",
			Citation: fmt.Sprintf("Theorem 1 admits m ≥ ⌈(r−1)n/2⌉ = %d for r < 2n+1, but no construction below n² is known; certified rearrangeable only", conditions.SmallTopMinM(n, r))}
	case condPigeonhole:
		return api.DesignCertificate{Condition: "uplink-pigeonhole",
			Citation: fmt.Sprintf("m = %d < n = %d: a cross-switch permutation loads some uplink with two SD pairs under any routing", m, n)}
	case condDominated:
		// Pruned points never reach the frontier; the condition alone
		// says why.
		return api.DesignCertificate{Condition: "dominated"}
	case condAboveMinM, condNoMinM, condBelowMinM:
		g := p.groups[c.ref]
		var cert api.DesignCertificate
		switch c.cond {
		case condAboveMinM:
			cert = api.DesignCertificate{Condition: "monotone-above-minm",
				Citation: fmt.Sprintf("nonblocking is monotone non-decreasing in m at fixed (n=%d, r=%d, %s); verified witness at m = %d", n, r, router, g.minM),
				MinM:     g.minM, SweepKey: g.upKey}
			if g.upper.Request.M != 0 {
				cert.Replays = append(cert.Replays, g.upper)
			}
		case condNoMinM:
			cert = api.DesignCertificate{Condition: "no-nonblocking-m-found",
				Citation: fmt.Sprintf("no m ≤ %d verified nonblocking for (n=%d, r=%d, %s); certified rearrangeable only (Benes 1962, m ≥ n)", g.hiTop, n, r, router)}
		default:
			cert = api.DesignCertificate{Condition: "monotone-below-minm",
				Citation: fmt.Sprintf("m = %d is below the verified minimal nonblocking m = %d for (n=%d, r=%d, %s); certified rearrangeable only", m, g.minM, n, r, router),
				MinM:     g.minM}
		}
		if g.lower.Request.M != 0 {
			cert.Replays = append(cert.Replays, g.lower)
		}
		return cert
	case condInfeasible:
		return api.DesignCertificate{Condition: "constructor-infeasible",
			Citation: "router constructor rejects these parameters; certified rearrangeable only (Benes 1962, m ≥ n)"}
	}
	// The probe conditions.
	pr := &p.probes[c.ref]
	cert := api.DesignCertificate{SweepKey: pr.key, Replays: []api.DesignReplay{pr.replay}}
	switch c.cond {
	case condProbeNonblocking:
		cert.Condition, cert.Citation = "verified-sweep", "exact verification: "+pr.method
	case condProbeEmpirical:
		cert.Condition, cert.Citation = "verified-sweep", "randomized verification (not a proof): "+pr.method
	default:
		cert.Condition = "verified-blocking"
		cert.Citation = "verification found a blocked permutation; the fabric keeps its telephone-sense rearrangeable floor (Benes 1962)"
	}
	return cert
}

// eligible reports whether a fabric of this size fits the tier-2 budget.
func (p *planner) eligible(hosts int) bool {
	return p.opts.Verify != nil && hosts <= p.v.MaxHosts
}

// decideFtreeVerified settles a concrete-router ftree candidate by group
// binary search (tier 1, NoPrune off) or an individual probe.
func (p *planner) decideFtreeVerified(ctx context.Context, c *candidate) error {
	router := p.routers[c.router]
	if p.opts.NoPrune {
		q := p.ftreeRequest(int(c.n), int(c.m), int(c.r), router)
		return p.settleByProbe(ctx, c, q)
	}
	gi, err := p.groupFor(ctx, c, router)
	if err != nil {
		return err
	}
	g := p.groups[gi]
	c.ref = gi
	m := int(c.m)
	tier := 1
	if g.freshM[m] {
		tier = 2
	}
	switch {
	case m >= g.minM:
		p.settle(c, tier, g.level, condAboveMinM)
	case g.minM > g.hiTop:
		p.settle(c, tier, 1, condNoMinM)
	default:
		p.settle(c, tier, 1, condBelowMinM)
	}
	return nil
}

// settleByProbe verifies one candidate at its own parameters and settles
// it from the verdict. The rearrangeable floor (level 1) holds even when
// the probe proves the routing blocking.
func (p *planner) settleByProbe(ctx context.Context, c *candidate, q *api.Request) error {
	rep, key, fresh, err := p.probe(ctx, q)
	tier := 1
	if fresh {
		tier = 2
	}
	if errors.Is(err, ErrInfeasible) {
		p.settle(c, tier, 1, condInfeasible)
		return nil
	}
	if err != nil {
		return err
	}
	c.ref = int32(len(p.probes))
	p.probes = append(p.probes, probeResult{
		replay: api.DesignReplay{Request: *q, WantVerdict: rep.Verdict, WantExact: rep.Exact},
		key:    key, method: rep.Method,
	})
	switch {
	case rep.Verdict == "nonblocking" || rep.Verdict == "no-blocking-found" && rep.Exact:
		p.settle(c, tier, 3, condProbeNonblocking)
	case rep.Verdict == "no-blocking-found":
		p.settle(c, tier, 2, condProbeEmpirical)
	default: // blocking
		p.settle(c, tier, 1, condProbeBlocking)
	}
	return nil
}

// groupFor returns the index in p.groups of the monotone binary search for
// the candidate's (n, r, router) group, running it on first use. The
// search domain is [n, hiTop]: below n the pigeonhole bound already
// decides, and at or above the router's closed-form shortcut tier 0
// decides, so hiTop is the catalog's m-axis top clamped below the
// shortcut.
func (p *planner) groupFor(ctx context.Context, c *candidate, router string) (int32, error) {
	key := groupKey{n: c.n, r: c.r, router: c.router}
	if gi, ok := p.groupIdx[key]; ok {
		return gi, nil
	}
	n, r := int(c.n), int(c.r)
	hiTop := axis(p.cat.M, defaultM).Max
	if router == "paper-folded" {
		// Tier 0 certifies the folded scheme from m = n² up.
		hiTop = min(hiTop, conditions.DeterministicMinM(n)-1)
	}
	g := &group{hiTop: hiTop, freshM: make(map[int]bool)}
	gi := int32(len(p.groups))
	p.groups = append(p.groups, g)
	p.groupIdx[key] = gi
	p.rep.Groups++
	if p.opts.Logf != nil {
		p.opts.Logf("design: group search (n=%d, r=%d, %s) over m ∈ [%d, %d]", n, r, router, n, hiTop)
	}

	// One probe, remembering boundary evidence for the certificates.
	test := func(m int) (bool, error) {
		q := p.ftreeRequest(n, m, r, router)
		rep, pkey, fresh, err := p.probe(ctx, q)
		if fresh {
			g.freshM[m] = true
		}
		if errors.Is(err, ErrInfeasible) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		replay := api.DesignReplay{Request: *q, WantVerdict: rep.Verdict, WantExact: rep.Exact}
		if rep.Verdict == "blocking" {
			g.lower = replay
			return false, nil
		}
		g.upper, g.upKey = replay, pkey
		if rep.Exact {
			g.level = 3
		} else {
			g.level = 2
		}
		return true, nil
	}

	// Binary search for the smallest nonblocking m, assuming monotonicity
	// (the property test in design_test pins the assumption against a
	// linear scan). Invariant: P(lo) false, P(hi) true; lo starts at n−1,
	// false by the pigeonhole bound without a probe.
	if hiTop < n {
		g.minM = hiTop + 1 // empty domain: every group candidate was tier-0 decided
		return gi, nil
	}
	ok, err := test(hiTop)
	if err != nil {
		return 0, err
	}
	if !ok {
		g.minM = hiTop + 1
		return gi, nil
	}
	lo, hi := n-1, hiTop
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := test(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	g.minM = hi
	// Re-point the boundary evidence at the boundary itself: the last
	// true probe may not have been at hi, and the last false not at hi−1.
	if g.upper.Request.M != g.minM {
		if _, err := test(g.minM); err != nil {
			return 0, err
		}
	}
	if g.minM > n && g.lower.Request.M != g.minM-1 {
		if _, err := test(g.minM - 1); err != nil {
			return 0, err
		}
	}
	return gi, nil
}

// probe answers one verification request: shared memo first (tier-1
// evidence), then the injected VerifyFunc (tier 2). fresh reports whether
// a real run happened.
func (p *planner) probe(ctx context.Context, q *api.Request) (rep *api.VerifyReport, key string, fresh bool, err error) {
	p.keyBuf = q.AppendCacheKey(p.keyBuf[:0], "verify")
	key = string(p.keyBuf)
	if p.opts.Memo != nil {
		if body, ok := p.opts.Memo.Get(key); ok {
			rep = &api.VerifyReport{}
			if uerr := json.Unmarshal(body, rep); uerr == nil {
				p.rep.MemoHits++
				return rep, key, false, nil
			}
			// An undecodable entry (foreign schema under a colliding key)
			// falls through to a fresh run.
		}
	}
	if p.opts.Verify == nil {
		return nil, key, false, fmt.Errorf("design: internal: probe without a verifier")
	}
	rep, err = p.opts.Verify(ctx, q)
	if err != nil {
		return nil, key, false, err
	}
	p.rep.FreshRuns++
	if p.opts.Memo != nil {
		if body, merr := json.Marshal(rep); merr == nil {
			p.opts.Memo.Put(key, body)
		}
	}
	return rep, key, true, nil
}

// ftreeRequest builds the fully-specified verify request for one ftree
// probe. Every normalize-filled field is set explicitly so the CacheKey
// equals the server's canonical job key for the same point — the parity
// is pinned by a test against server.VerifyCacheKey.
func (p *planner) ftreeRequest(n, m, r int, router string) *api.Request {
	q := p.request()
	q.Topo, q.N, q.M, q.R = "ftree", n, m, r
	q.Ports, q.Levels = 20, 2 // normalize parity for the unused mnt fields
	q.Routing = router
	return q
}

// mntRequest is ftreeRequest for the m-port n-tree family.
func (p *planner) mntRequest(ports, levels int, router string) *api.Request {
	q := p.request()
	q.Topo, q.Ports, q.Levels = "mnt", ports, levels
	q.N, q.M, q.R = 4, 16, 20 // normalize parity for the unused ftree fields
	q.Routing = router
	return q
}

// request allocates a probe request and its seed together and fills the
// fields every probe shares.
func (p *planner) request() *api.Request {
	qs := &struct {
		q    api.Request
		seed int64
	}{seed: p.v.Seed}
	qs.q = api.Request{
		Mode:   "auto",
		Trials: p.v.Trials, Seed: &qs.seed,
		MaxExhaustive: p.v.MaxExhaustive,
		Restarts:      8, Steps: 400,
		Pattern: "random", Flits: 4, Pkts: 8, Arbiter: "round-robin",
		SymReduce: true,
	}
	return &qs.q
}
