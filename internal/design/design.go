// Package design implements the nbdesign explorer: an enumerator over the
// (topology family × n × m × r × router) design space driven by a
// three-tier verification planner.
//
// Tier 0 answers candidates from the paper's closed forms in package
// conditions (Theorems 1–3 for deterministic routing, Theorem 5 for
// NONBLOCKINGADAPTIVE, the Benes rearrangeability condition, the recursive
// multi-level construction) as certified YES/NO without building a
// topology. Tier 1 exploits monotonicity — nonblocking is monotone
// non-decreasing in the top-switch count m at fixed (n, r, router) — so
// one binary search on m decides a whole group, and dominance pruning
// skips any candidate that is costlier and no more capable than an
// already-decided point. Tier 2 falls through to real verification
// (POST /v1/verify semantics: exact Lemma-1 analysis for single-path
// routers, symmetry-reduced exhaustive sweeps for small multipath fabrics,
// randomized sweeps beyond), memoized under the server's canonical job
// keys so the explorer and nbserve share one result cache.
//
// The output is the Pareto frontier of cost versus guarantee: every point
// carries a certificate — a closed-form citation, a monotonicity witness,
// or a sweep result key with replayable requests — at the tier that
// decided it. Planning keeps each candidate as a small value with a
// condition code; names, citations and certificates are rendered for the
// frontier points only, so a catalog costs no heap object or formatting
// call per candidate.
package design

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/api"
	"repro/internal/cost"
	"repro/internal/store"
)

// VerifyFunc runs one verification probe (the semantics of POST
// /v1/verify). Implementations return ErrInfeasible (wrapped or bare) for
// candidates whose router cannot be constructed at the probed point —
// e.g. the Theorem-3 scheme below m = n² — which the planner treats as
// "not nonblocking here", never as a fatal error.
type VerifyFunc func(ctx context.Context, q *api.Request) (*api.VerifyReport, error)

// ErrInfeasible marks a probe that failed because the candidate cannot be
// built (router constructor rejected the parameters), as opposed to an
// execution failure.
var ErrInfeasible = errors.New("design: candidate not constructible at this point")

// Options configures a Plan run.
type Options struct {
	// Verify executes tier-2 probes. Nil disables tier 2: candidates the
	// closed forms cannot decide get conservative rearrangeable-only
	// certificates.
	Verify VerifyFunc
	// Memo caches probe results under the canonical /v1/verify keys.
	// Passing the server's result store makes the explorer and nbserve
	// share one cache. Nil runs without memoization.
	Memo store.Store
	// NoPrune disables tier 1 (the monotone binary search and dominance
	// pruning): every closed-form-undecidable candidate is verified
	// individually. The frontier is identical either way; the flag exists
	// to measure what the planner saves.
	NoPrune bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Tier-2 budget defaults (DesignVerify zero values).
const (
	defaultMaxHosts      = 48
	defaultMaxExhaustive = 8
	defaultTrials        = 200
	defaultSeed          = 1
)

// maxCatalogCandidates bounds the enumerated grid so a hostile
// /v1/design body cannot allocate without limit.
const maxCatalogCandidates = 1 << 20

// Axis defaults when the catalog leaves a range nil.
var (
	defaultN      = api.DesignRange{Min: 2, Max: 4}
	defaultR      = api.DesignRange{Min: 3, Max: 9}
	defaultM      = api.DesignRange{Min: 1, Max: 16}
	defaultPorts  = api.DesignRange{Min: 4, Max: 8}
	defaultLevels = api.DesignRange{Min: 2, Max: 3}
)

// Router vocabularies per family. The concrete ftree names are exactly
// the /v1/verify routing names; "deterministic" and "adaptive" are the
// closed-form disciplines of Theorems 1–3 and 5.
var (
	ftreeConcreteRouters = map[string]bool{
		"paper": true, "paper-folded": true, "dest-mod": true,
		"source-mod": true, "dest-switch-mod": true, "random-fixed": true,
		"adaptive": true, "greedy-local": true, "global": true, "spray": true,
	}
	abstractRouters = map[string]bool{"deterministic": true, "adaptive": true}
	mntRouters      = map[string]bool{"mnt-dest-mod": true, "mnt-random": true}
)

func knownFamily(f string) bool {
	switch f {
	case "ftree", "xgft", "mnt", "multilevel":
		return true
	}
	return false
}

// resolvedVerify fills the DesignVerify defaults.
func resolvedVerify(cat *api.DesignCatalog) api.DesignVerify {
	var v api.DesignVerify
	if cat.Verify != nil {
		v = *cat.Verify
	}
	if v.MaxHosts == 0 {
		v.MaxHosts = defaultMaxHosts
	}
	if v.MaxExhaustive == 0 {
		v.MaxExhaustive = defaultMaxExhaustive
	}
	if v.Trials == 0 {
		v.Trials = defaultTrials
	}
	if v.Seed == 0 {
		v.Seed = defaultSeed
	}
	return v
}

func axis(r *api.DesignRange, def api.DesignRange) api.DesignRange {
	if r == nil {
		return def
	}
	return *r
}

func axisLen(r api.DesignRange) int { return r.Max - r.Min + 1 }

// ValidateCatalog rejects malformed catalogs before any enumeration.
func ValidateCatalog(cat *api.DesignCatalog) error {
	if len(cat.Families) == 0 {
		return fmt.Errorf("design: catalog names no families")
	}
	seen := map[string]bool{}
	for _, f := range cat.Families {
		if !knownFamily(f) {
			return fmt.Errorf("design: unknown family %q (ftree | xgft | mnt | multilevel)", f)
		}
		if seen[f] {
			return fmt.Errorf("design: family %q listed twice", f)
		}
		seen[f] = true
	}
	for _, rt := range cat.Routers {
		if !ftreeConcreteRouters[rt] && !abstractRouters[rt] && !mntRouters[rt] {
			return fmt.Errorf("design: unknown router %q", rt)
		}
	}
	for _, ax := range []struct {
		name     string
		r        api.DesignRange
		min, max int
	}{
		{"n", axis(cat.N, defaultN), 1, 64},
		{"r", axis(cat.R, defaultR), 2, 1 << 16},
		{"m", axis(cat.M, defaultM), 1, 1 << 16},
		{"ports", axis(cat.Ports, defaultPorts), 2, 1 << 16},
		{"levels", axis(cat.Levels, defaultLevels), 2, 8},
	} {
		if ax.r.Min < ax.min || ax.r.Max > ax.max || ax.r.Max < ax.r.Min {
			return fmt.Errorf("design: %s range [%d, %d] outside [%d, %d] or empty",
				ax.name, ax.r.Min, ax.r.Max, ax.min, ax.max)
		}
	}
	if cat.MinHosts < 0 {
		return fmt.Errorf("design: min_hosts must be >= 0 (have %d)", cat.MinHosts)
	}
	if cat.Verify != nil {
		for _, p := range []struct {
			name string
			v    int
		}{
			{"max_hosts", cat.Verify.MaxHosts}, {"max_exhaustive", cat.Verify.MaxExhaustive},
			{"trials", cat.Verify.Trials},
		} {
			if p.v < 0 {
				return fmt.Errorf("design: verify.%s must be >= 0 (have %d)", p.name, p.v)
			}
		}
		if cat.Verify.Seed < 0 {
			return fmt.Errorf("design: verify.seed must be >= 0 (have %d)", cat.Verify.Seed)
		}
	}
	if g := gridSize(cat); g > maxCatalogCandidates {
		return fmt.Errorf("design: catalog enumerates %d candidates, limit %d", g, maxCatalogCandidates)
	}
	return nil
}

// gridSize upper-bounds the candidate count without enumerating.
func gridSize(cat *api.DesignCatalog) int {
	n, r, m := axis(cat.N, defaultN), axis(cat.R, defaultR), axis(cat.M, defaultM)
	ports, levels := axis(cat.Ports, defaultPorts), axis(cat.Levels, defaultLevels)
	nf, na, nm := routersFor(cat)
	total := 0
	for _, f := range cat.Families {
		switch f {
		case "ftree":
			total += axisLen(n) * axisLen(r) * axisLen(m) * len(nf)
		case "xgft":
			total += axisLen(n) * axisLen(r) * axisLen(m) * len(na)
		case "mnt":
			total += axisLen(ports) * axisLen(levels) * len(nm)
		case "multilevel":
			total += axisLen(n) * axisLen(levels)
		}
		if total > maxCatalogCandidates {
			return total
		}
	}
	return total
}

// routersFor splits the catalog's router list into the per-family
// selections (ftree gets concrete and abstract names, xgft abstract only,
// mnt its own), with defaults when a family would otherwise get none.
func routersFor(cat *api.DesignCatalog) (ftree, xgft, mnt []string) {
	for _, rt := range cat.Routers {
		if ftreeConcreteRouters[rt] || abstractRouters[rt] {
			ftree = append(ftree, rt)
		}
		if abstractRouters[rt] {
			xgft = append(xgft, rt)
		}
		if mntRouters[rt] {
			mnt = append(mnt, rt)
		}
	}
	if len(ftree) == 0 {
		ftree = []string{"deterministic"}
	}
	if len(xgft) == 0 {
		xgft = []string{"deterministic"}
	}
	if len(mnt) == 0 {
		mnt = []string{"mnt-dest-mod"}
	}
	return ftree, xgft, mnt
}

// Family codes of a candidate, indexing familyNames.
const (
	famFtree uint8 = iota
	famXgft
	famMnt
	famMultilevel
)

var familyNames = [...]string{"ftree", "xgft", "mnt", "multilevel"}

// candidate is one enumerated design point in flight through the planner:
// a small value holding the identity and price of the point and, once
// decided, its level, tier and condition code. Names, citations and
// certificates are rendered from it only for frontier points (render).
// Unused identity fields stay zero, as they do in the rendered point. Its
// index in the enumerated slice is its enumeration order.
type candidate struct {
	cost    float64 // switches per host port
	hosts   int
	n, m, r int32
	ports   int32
	// levels is the mnt or multilevel depth.
	levels int32
	// ref indexes p.groups for the group conditions and p.probes for the
	// probe conditions.
	ref    int32
	family uint8
	router uint8 // index into planner.routers
	tier   int8
	level  int8
	cond   cond
}

// enumerate expands the catalog grid into candidates with identity and
// cost filled (pure arithmetic — no topology is built, nothing is named).
// Order is deterministic: families as listed, then router, n,
// r/ports/levels, m.
func (p *planner) enumerate() ([]candidate, error) {
	cat := p.cat
	nAx, rAx, mAx := axis(cat.N, defaultN), axis(cat.R, defaultR), axis(cat.M, defaultM)
	portsAx, levelsAx := axis(cat.Ports, defaultPorts), axis(cat.Levels, defaultLevels)
	ftreeR, xgftR, mntR := routersFor(cat)

	cands := make([]candidate, 0, gridSize(cat))
	add := func(c candidate, d cost.Design) {
		if d.Ports < cat.MinHosts {
			return
		}
		c.hosts, c.cost = d.Ports, d.CostPerPort()
		cands = append(cands, c)
	}
	for _, fam := range cat.Families {
		switch fam {
		case "ftree", "xgft":
			code, routers := famFtree, ftreeR
			if fam == "xgft" {
				code, routers = famXgft, xgftR
			}
			for _, rt := range routers {
				ri := p.routerIndex(rt)
				for n := nAx.Min; n <= nAx.Max; n++ {
					for r := rAx.Min; r <= rAx.Max; r++ {
						for m := mAx.Min; m <= mAx.Max; m++ {
							d, err := cost.FtreeGeneralUnnamed(n, m, r)
							if err != nil {
								return nil, err
							}
							add(candidate{family: code, router: ri, n: int32(n), m: int32(m), r: int32(r)}, d)
						}
					}
				}
			}
		case "mnt":
			for _, rt := range mntR {
				ri := p.routerIndex(rt)
				for ports := portsAx.Min; ports <= portsAx.Max; ports++ {
					if ports%2 != 0 {
						continue // FT(N, l) needs even N
					}
					for l := levelsAx.Min; l <= levelsAx.Max; l++ {
						d, err := cost.MPortNTreeUnnamed(ports, l)
						if err != nil {
							return nil, err
						}
						add(candidate{family: famMnt, router: ri, ports: int32(ports), levels: int32(l)}, d)
					}
				}
			}
		case "multilevel":
			ri := p.routerIndex("recursive")
			for n := nAx.Min; n <= nAx.Max; n++ {
				for l := levelsAx.Min; l <= levelsAx.Max; l++ {
					add(candidate{family: famMultilevel, router: ri, n: int32(n), levels: int32(l)}, cost.MultiLevelUnnamed(n, l))
				}
			}
		}
	}
	return cands, nil
}

// routerIndex returns rt's index in p.routers, adding it on first use.
func (p *planner) routerIndex(rt string) uint8 {
	for i, name := range p.routers {
		if name == rt {
			return uint8(i)
		}
	}
	p.routers = append(p.routers, rt)
	return uint8(len(p.routers) - 1)
}

// render builds the report entry of a decided candidate: its name, its
// cost breakdown and its certificate. Only frontier points are rendered.
func (p *planner) render(c *candidate) api.DesignPoint {
	n, m, r := int(c.n), int(c.m), int(c.r)
	ports, levels := int(c.ports), int(c.levels)
	// enumerate priced the same arguments without error.
	var d cost.Design
	switch c.family {
	case famFtree, famXgft:
		d, _ = cost.FtreeGeneral(n, m, r)
		if c.family == famXgft {
			// XGFT(2; n, r; 1, m) is the paper's ftree(n+m, r) in
			// Öhring's notation.
			d.Name = fmt.Sprintf("XGFT(2;%d,%d;1,%d)", n, r, m)
		}
	case famMnt:
		d, _ = cost.MPortNTreeDesign(ports, levels)
	case famMultilevel:
		d = cost.MultiLevelNonblocking(n, levels)
	}
	router := p.routers[c.router]
	cert := p.certificate(c, router)
	cert.Tier = int(c.tier)
	return api.DesignPoint{
		Family: familyNames[c.family], Name: d.Name + "/" + router,
		N: n, M: m, R: r, Ports: ports, Levels: levels, Router: router,
		SwitchPorts: d.SwitchPorts, Switches: d.Switches,
		Hosts: d.Ports, CostPerPort: d.CostPerPort(),
		Level: int(c.level), Guarantee: guaranteeName(int(c.level)),
		Certificate: cert,
	}
}

// guaranteeName maps a level to its report string.
func guaranteeName(level int) string {
	switch level {
	case 3:
		return "nonblocking"
	case 2:
		return "empirical"
	case 1:
		return "rearrangeable"
	}
	return "none"
}
