package api

// Design-explorer schema: the input catalog and output report of
// cmd/nbdesign and POST /v1/design. The types live here (not in
// internal/design) so the planner, the server, and the CLIs share one
// JSON vocabulary without an import cycle — exactly like Request and the
// engine reports above.

// DesignRange is an inclusive integer interval of a catalog axis.
type DesignRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// DesignVerify bounds the planner's tier-2 (real-verification) budget and
// pins the sweep parameters so every probe has one canonical cache key.
type DesignVerify struct {
	// MaxHosts is the largest topology (host count) the planner will
	// verify for real; bigger candidates fall back to closed-form
	// certificates only. 0 selects 48.
	MaxHosts int `json:"max_hosts,omitempty"`
	// MaxExhaustive and Trials mirror the verify request fields: sweeps up
	// to MaxExhaustive hosts are exhaustive (symmetry-reduced), larger
	// multipath fabrics fall back to Trials random patterns. 0 selects
	// 8 / 200.
	MaxExhaustive int `json:"max_exhaustive,omitempty"`
	Trials        int `json:"trials,omitempty"`
	// Seed is the RNG seed of randomized probes (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// DesignCatalog is the input of the design-space explorer: the axes of
// the (family × n × m × r × router) grid to enumerate.
type DesignCatalog struct {
	// Families to enumerate: ftree | xgft | mnt | multilevel.
	Families []string `json:"families"`
	// Routers: for ftree, any routing name POST /v1/verify accepts plus
	// the closed-form disciplines "deterministic" and "adaptive"; xgft
	// uses only the closed-form disciplines; mnt uses mnt-dest-mod /
	// mnt-random. Families ignore routers that do not apply to them.
	// Empty selects "deterministic" (and mnt-dest-mod for mnt).
	Routers []string `json:"routers,omitempty"`
	// Grid axes. ftree/xgft enumerate n × r × m; mnt enumerates
	// ports × levels (odd port counts are skipped — FT(N, l) needs even
	// N); multilevel enumerates n × levels. Nil axes pick small defaults.
	N      *DesignRange `json:"n,omitempty"`
	R      *DesignRange `json:"r,omitempty"`
	M      *DesignRange `json:"m,omitempty"`
	Ports  *DesignRange `json:"ports,omitempty"`
	Levels *DesignRange `json:"levels,omitempty"`
	// MinHosts drops candidates supporting fewer hosts before planning.
	MinHosts int `json:"min_hosts,omitempty"`
	// Verify bounds the tier-2 budget; nil selects the defaults above.
	Verify *DesignVerify `json:"verify,omitempty"`
}

// DesignRequest is the body of POST /v1/design.
type DesignRequest struct {
	Catalog DesignCatalog `json:"catalog"`
	// NoPrune disables the tier-1 planner (monotone binary search on m and
	// dominance pruning): every closed-form-undecidable candidate is
	// verified individually. The frontier is identical either way — the
	// flag exists to measure what the planner saves.
	NoPrune   bool  `json:"no_prune,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// DesignReplay is one verification request whose re-execution reproduces
// the evidence a certificate rests on: POST Request to /v1/verify and
// compare the verdict.
type DesignReplay struct {
	Request     Request `json:"request"`
	WantVerdict string  `json:"want_verdict"`
	WantExact   bool    `json:"want_exact"`
}

// DesignCertificate says why a frontier point's guarantee level holds and
// at which planner tier it was decided: 0 = closed form (no topology
// built), 1 = monotonicity/memo (derived from another point's evidence),
// 2 = fresh verification run.
type DesignCertificate struct {
	Tier int `json:"tier"`
	// Condition is the machine-checkable condition id
	// (the design tests' ReplayCondition re-evaluates it); Citation is the
	// human-readable source in the paper.
	Condition string `json:"condition"`
	Citation  string `json:"citation"`
	// MinM is the monotonicity witness: the smallest top-switch count of
	// this (family, n, r, router) group that verified nonblocking
	// (0 when the certificate is not monotonicity-based).
	MinM int `json:"min_m,omitempty"`
	// SweepKey is the canonical /v1/verify cache key of the deciding
	// sweep, shared with the nbserve result store.
	SweepKey string `json:"sweep_key,omitempty"`
	// Replays reproduce the sweep evidence; empty for pure closed forms.
	Replays []DesignReplay `json:"replays,omitempty"`
}

// DesignPoint is one decided candidate: identity, cost, and certified
// guarantee. Level orders the guarantees: 3 = certified nonblocking
// (closed form or exact sweep), 2 = empirically nonblocking (randomized
// sweep found no blocking; not a proof), 1 = rearrangeably nonblocking in
// the telephone sense only, 0 = blocking / no guarantee.
type DesignPoint struct {
	Family string `json:"family"`
	Name   string `json:"name"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
	R      int    `json:"r,omitempty"`
	Ports  int    `json:"ports,omitempty"`
	Levels int    `json:"levels,omitempty"`
	Router string `json:"router"`

	SwitchPorts int     `json:"switch_ports"`
	Switches    int     `json:"switches"`
	Hosts       int     `json:"hosts"`
	CostPerPort float64 `json:"cost_per_port"`

	Level       int               `json:"level"`
	Guarantee   string            `json:"guarantee"`
	Certificate DesignCertificate `json:"certificate"`
}

// DesignReport is the explorer output: planner effectiveness counters and
// the Pareto frontier of cost versus guarantee. The report is fully
// deterministic for a fixed catalog (no timing, no map iteration), so it
// can be diffed against a golden file.
type DesignReport struct {
	// Candidates enumerated (after the MinHosts filter), and how many were
	// decided at each tier. Tier1 includes dominance-pruned candidates
	// (Pruned counts them separately) and memo/monotonicity decisions.
	Candidates int `json:"candidates"`
	Tier0      int `json:"tier0"`
	Tier1      int `json:"tier1"`
	Tier2      int `json:"tier2"`
	Pruned     int `json:"pruned"`
	// Groups is the number of (family, n, r, router) binary searches run;
	// FreshRuns the fresh verifications they (and direct probes) cost;
	// MemoHits the probes answered by the shared result store.
	Groups    int `json:"groups"`
	FreshRuns int `json:"fresh_runs"`
	MemoHits  int `json:"memo_hits"`
	// Frontier holds the non-dominated points, cheapest first: no other
	// point has cost-per-port ≤, hosts ≥, and level ≥ all at once.
	Frontier []DesignPoint `json:"frontier"`
}
