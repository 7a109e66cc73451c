// Package api defines the machine-readable request/response schemas shared
// by the nbserve HTTP service and the CLI tools. The simulation report here
// is the exact `nbsim -json` schema (documented in EXPERIMENTS.md), so
// tooling written against the CLI output consumes nbserve responses
// unchanged, and vice versa. Everything round-trips through encoding/json.
package api

import (
	"encoding/json"
	"strconv"

	"repro/internal/sim"
)

// Request is the body of every nbserve POST endpoint. The endpoint path
// selects the operation; the topology/routing/workload fields mirror the
// nbsim and nbverify flags one for one. Zero values select the same
// defaults as the CLIs.
type Request struct {
	// Topology: ftree (default) is the paper's folded Clos ftree(n+m, r);
	// mnt is the m-port n-tree baseline.
	Topo   string `json:"topo,omitempty"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"` // 0 = n² (Theorem-3 provisioning)
	R      int    `json:"r,omitempty"`
	Ports  int    `json:"ports,omitempty"`  // mnt
	Levels int    `json:"levels,omitempty"` // mnt

	// Routing scheme, same names as the CLIs: paper | paper-folded |
	// dest-mod | source-mod | dest-switch-mod | random-fixed | adaptive |
	// greedy-local | global | spray | mnt-dest-mod | mnt-random.
	Routing    string `json:"routing,omitempty"`
	SprayWidth int    `json:"spray_width,omitempty"`

	// Verification (POST /v1/verify). Mode: auto (default) picks the exact
	// Lemma-1 analysis for single-path routers and a sweep otherwise;
	// exhaustive | exhaustive-parallel | random force an engine. Forcing an
	// exhaustive engine over more than max_exhaustive hosts is refused with
	// a 400 (hosts! patterns): raising max_exhaustive in the request is the
	// explicit opt-in for bigger sweeps.
	Mode   string `json:"mode,omitempty"`
	Trials int    `json:"trials,omitempty"`
	// Seed is a pointer so "absent" (nil → default 1) is distinct from an
	// explicit {"seed": 0}: seed 0 is a legal, requestable RNG seed.
	// Construct literals with SeedPtr; read through SeedValue.
	Seed          *int64 `json:"seed,omitempty"`
	MaxExhaustive int    `json:"max_exhaustive,omitempty"`
	FirstBlocked  bool   `json:"first_blocked,omitempty"`
	Workers       int    `json:"workers,omitempty"`

	// Adversarial search (POST /v1/worstcase).
	Restarts int `json:"restarts,omitempty"`
	Steps    int `json:"steps,omitempty"`

	// Simulation (POST /v1/sim), mirroring nbsim: pattern random | shift |
	// rotate | transpose, or open_loop for the rate sweep.
	Pattern  string `json:"pattern,omitempty"`
	Flits    int    `json:"flits,omitempty"`
	Pkts     int    `json:"pkts,omitempty"`
	Arbiter  string `json:"arbiter,omitempty"`
	OpenLoop bool   `json:"open_loop,omitempty"`

	// Shard selection (POST /v1/verify/shard): sweep only the full
	// permutations whose sources 0..len(shard_prefix)−1 send to these
	// destinations. Set by the distributed sweep coordinator when it fans
	// one exhaustive sweep across worker nbserve nodes; empty everywhere
	// else.
	ShardPrefix []int `json:"shard_prefix,omitempty"`

	// SymShard selects one contiguous range [lo, hi) of top-level necklace
	// indices of the symmetry-reduced orbit enumeration
	// (permutation.BlockSymmetry.Shards). Only valid on /v1/verify/shard,
	// only together with sym_reduce, and mutually exclusive with
	// shard_prefix. Set by the coordinator when it fans a symmetry-reduced
	// sweep across workers.
	SymShard []int `json:"sym_shard,omitempty"`

	// Failures configures the fault-injection campaign (POST /v1/failures)
	// and is only valid there. Nil everywhere else.
	Failures *FailuresRequest `json:"failures,omitempty"`

	// Execution controls. These do NOT participate in the result-cache key:
	// they change how a job runs, not what it computes. SymReduce asks the
	// exhaustive engines to sweep one canonical representative per orbit of
	// the fabric's block symmetry group instead of all hosts! patterns —
	// the result is byte-identical wherever the reduction applies (and the
	// engine falls back to the full sweep where it does not), so a
	// symmetry-reduced verify and its full counterpart share one cache
	// entry.
	SymReduce bool  `json:"sym_reduce,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	NoCache   bool  `json:"no_cache,omitempty"`
}

// CacheKey canonicalizes the result-determining fields into a stable
// string. Two requests with equal keys compute byte-identical responses,
// so the server may serve one from the other's cached result. Execution
// controls (timeout, cache directives) and the worker count are excluded:
// parallel sweeps are deterministic in their merged counters regardless of
// worker count, and sim trials already split work deterministically.
// The op is prefixed because the same topology tuple means different work
// on different endpoints.
func (q *Request) CacheKey(op string) string {
	var buf [256]byte // fits every key short of long shard prefixes
	return string(q.AppendCacheKey(buf[:0], op))
}

// AppendCacheKey appends CacheKey(op) to dst and returns the extended
// buffer, so hot paths can build keys in a reused buffer.
func (q *Request) AppendCacheKey(dst []byte, op string) []byte {
	b := appendString(append(dst, op...), "|topo=", q.Topo)
	b = appendInt(b, ",n=", q.N)
	b = appendInt(b, ",m=", q.M)
	b = appendInt(b, ",r=", q.R)
	b = appendInt(b, ",ports=", q.Ports)
	b = appendInt(b, ",levels=", q.Levels)
	b = appendString(b, "|routing=", q.Routing)
	b = appendInt(b, ",spray=", q.SprayWidth)
	b = appendString(b, "|mode=", q.Mode)
	b = appendInt(b, ",trials=", q.Trials)
	b = strconv.AppendInt(append(b, ",seed="...), q.SeedValue(), 10)
	b = appendInt(b, ",maxexh=", q.MaxExhaustive)
	b = appendBool(b, ",fb=", q.FirstBlocked)
	b = appendInt(b, "|restarts=", q.Restarts)
	b = appendInt(b, ",steps=", q.Steps)
	b = appendString(b, "|pattern=", q.Pattern)
	b = appendInt(b, ",flits=", q.Flits)
	b = appendInt(b, ",pkts=", q.Pkts)
	b = appendString(b, ",arbiter=", q.Arbiter)
	b = appendBool(b, ",open=", q.OpenLoop)
	if len(q.ShardPrefix) > 0 {
		// Appended only when set so every pre-existing key is unchanged.
		b = appendShardID(append(b, "|shard="...), q.ShardPrefix)
	}
	if len(q.SymShard) == 2 {
		// A sym shard computes a different partial result than the whole
		// sweep (or any prefix shard), so it keys separately. SymReduce
		// itself stays out of the key: a symmetry-reduced sweep's final
		// report is byte-identical to the full engine's.
		b = appendSymShardID(append(b, "|symshard="...), q.SymShard[0], q.SymShard[1])
	}
	if fr := q.Failures; fr != nil {
		// Appended only when set so every pre-existing key is unchanged.
		b = appendString(b, "|failures=", fr.Scenario)
		b = appendInt(b, ",max=", fr.MaxFailures)
		b = appendInt(b, ",samples=", fr.Samples)
		b = appendInt(b, ",ftrials=", fr.Trials)
		b = append(b, ",schemes="...)
		for i, s := range fr.Schemes {
			if i > 0 {
				b = append(b, '+')
			}
			b = append(b, s...)
		}
		b = appendBool(b, ",fsim=", fr.Sim)
	}
	return b
}

// appendString, appendInt and appendBool append a "name=value" key field.
func appendString(b []byte, name, v string) []byte { return append(append(b, name...), v...) }

func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

// ShardID renders a shard prefix as the canonical dotted string used in
// cache keys, checkpoint keys, and progress events: "2.0.1" for prefix
// [2 0 1]. Empty prefix renders as "" (the whole space).
func ShardID(prefix []int) string { return string(appendShardID(nil, prefix)) }

func appendShardID(b []byte, prefix []int) []byte {
	for i, d := range prefix {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return b
}

// SymShardID renders a symmetry-reduced shard range as the canonical
// string used in cache keys, checkpoint keys, and shard reports:
// "sym.2.5" for necklace indices [2, 5). The "sym." prefix keeps these
// IDs disjoint from prefix-shard IDs, which are digits and dots only.
func SymShardID(lo, hi int) string { return string(appendSymShardID(nil, lo, hi)) }

func appendSymShardID(b []byte, lo, hi int) []byte {
	b = strconv.AppendInt(append(b, "sym."...), int64(lo), 10)
	return strconv.AppendInt(append(b, '.'), int64(hi), 10)
}

// SeedPtr returns v as a *int64, for constructing Request literals with an
// explicit seed (including the previously unrequestable seed 0).
func SeedPtr(v int64) *int64 { return &v }

// SeedValue resolves the request seed: nil (field absent) selects the
// CLI default of 1; any explicit value — zero included — is itself.
// CacheKey uses this resolution, so an absent seed and an explicit
// {"seed": 1} stay one cache entry, exactly as before the pointer change.
func (q *Request) SeedValue() int64 {
	if q.Seed == nil {
		return 1
	}
	return *q.Seed
}

// BatchRequest is the body of POST /v1/verify/batch: many verify points in
// one call. Items with identical canonical cache keys are deduplicated
// within the batch (one computation, every item answered); the rest fan
// out across the server's worker pool. TimeoutMs bounds the whole batch;
// NoCache bypasses the result store for every item (an individual item's
// no_cache does the same for just that item — it is never served a store
// hit, even when another item in the batch shares its canonical key).
type BatchRequest struct {
	Items     []Request `json:"items"`
	TimeoutMs int64     `json:"timeout_ms,omitempty"`
	NoCache   bool      `json:"no_cache,omitempty"`
}

// BatchItemReport is one item's outcome, at the same index as its request.
// Status is the HTTP status the item would have received on /v1/verify
// (200 with Result, or 400/429/500/504 with Error). One bad item never
// fails the batch: the batch-level status is 200 whenever the batch itself
// was well-formed and enqueueable.
type BatchItemReport struct {
	Status int `json:"status"`
	// Cache: hit (served from the result store) | miss (computed by this
	// batch) | dedup (identical to an earlier item in this batch; served
	// from its computation).
	Cache  string          `json:"cache,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// BatchReport is the POST /v1/verify/batch response. Items align
// one-to-one, in order, with the request's items.
type BatchReport struct {
	Items []BatchItemReport `json:"items"`
	// Unique counts the groups evaluated at most once: distinct canonical
	// keys among the valid items, with no_cache items grouped apart from
	// cacheable ones sharing their key. Deduplicated counts items answered
	// by another item's evaluation in this batch (never items of a
	// store-hit group); CacheHits counts items served from the result
	// store. The two are disjoint. JobsRun counts fresh computations this
	// batch scheduled.
	Unique       int `json:"unique"`
	Deduplicated int `json:"deduplicated"`
	CacheHits    int `json:"cache_hits"`
	JobsRun      int `json:"jobs_run"`
}

// SimReport is the simulation response and the `nbsim -json` output schema
// (EXPERIMENTS.md, "Metrics schema"). Exactly one of Closed, Sweep, Trials
// is populated, keyed by Mode.
type SimReport struct {
	Network        string `json:"network"`
	Hosts          int    `json:"hosts"`
	Routing        string `json:"routing"`
	PacketFlits    int    `json:"packet_flits"`
	PacketsPerPair int    `json:"packets_per_pair,omitempty"`
	Arbiter        string `json:"arbiter"`
	Mode           string `json:"mode"` // closed-loop | open-loop | random-trials
	Pattern        string `json:"pattern,omitempty"`

	Closed *ClosedReport          `json:"closed,omitempty"`
	Sweep  []sim.LoadSweepPoint   `json:"sweep,omitempty"`
	Trials *sim.ThroughputSummary `json:"trials,omitempty"`
}

// ClosedReport is the closed-loop (single structured pattern) section.
type ClosedReport struct {
	Pairs            int          `json:"pairs"`
	ContendedLinks   int          `json:"contended_links"`
	MaxLinkLoad      int          `json:"max_link_load"`
	Makespan         int64        `json:"makespan"`
	CrossbarMakespan int64        `json:"crossbar_makespan"`
	Slowdown         float64      `json:"slowdown"`
	MeanLatency      float64      `json:"mean_latency"`
	Metrics          *sim.Metrics `json:"metrics,omitempty"`
}

// VerifyReport is the POST /v1/verify response.
type VerifyReport struct {
	Network string `json:"network"`
	Hosts   int    `json:"hosts"`
	Routing string `json:"routing"`
	// Method records which engine decided: lemma1-exact | exhaustive |
	// exhaustive-first-blocked | exhaustive-parallel | random.
	Method string `json:"method"`
	// Verdict: nonblocking (exact) | blocking (exact or witnessed) |
	// no-blocking-found (sweep exhausted without a contended pattern;
	// exact only if the sweep was exhaustive).
	Verdict string `json:"verdict"`
	// Exact is true when the verdict is a proof (Lemma-1 analysis or a
	// completed exhaustive sweep), false for randomized sampling.
	Exact bool `json:"exact"`
	// Sweep statistics (zero for the Lemma-1 path).
	Tested      int `json:"tested,omitempty"`
	Blocked     int `json:"blocked,omitempty"`
	MaxLinkLoad int `json:"max_link_load,omitempty"`
	// Witness is a concrete blocked permutation ("0->3 1->2 ...") when the
	// verdict is blocking.
	Witness string `json:"witness,omitempty"`
}

// WorstCaseReport is the POST /v1/worstcase response.
type WorstCaseReport struct {
	Network        string `json:"network"`
	Hosts          int    `json:"hosts"`
	Routing        string `json:"routing"`
	ContendedLinks int    `json:"contended_links"`
	MaxLinkLoad    int    `json:"max_link_load"`
	Evaluated      int    `json:"evaluated"`
	// Permutation is the most-contended pattern found.
	Permutation string `json:"permutation,omitempty"`
}

// ShardReport is the POST /v1/verify/shard response: the raw SweepResult
// of one prefix shard, before any merging. FirstBlocked is the shard's
// first blocked pattern in its engine's enumeration order ("0->3 1->2 ...",
// empty when none); RouteErr carries a routing failure the shard hit
// (shard-level data, not an HTTP error, so the coordinator can tell
// "finished, found a route error" from transport failures).
type ShardReport struct {
	Network      string `json:"network"`
	Hosts        int    `json:"hosts"`
	Routing      string `json:"routing"`
	Shard        string `json:"shard"` // ShardID form, or SymShardID ("sym.lo.hi") for sym shards
	Tested       int    `json:"tested"`
	Blocked      int    `json:"blocked"`
	MaxLinkLoad  int    `json:"max_link_load"`
	FirstBlocked string `json:"first_blocked,omitempty"`
	RouteErr     string `json:"route_err,omitempty"`
}

// SweepAccepted is the immediate POST /v1/verify/sweep response: the
// sweep runs as a tracked job, and the client follows its progress via
// the returned URLs. Resumed counts shards restored from store
// checkpoints rather than dispatched.
type SweepAccepted struct {
	JobID     string `json:"job_id"`
	Shards    int    `json:"shards"`
	Workers   int    `json:"workers"` // 0 = local in-process sweep
	Resumed   int    `json:"resumed"`
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// SweepStatus is the GET /v1/jobs/{id} response and the payload of every
// SSE `progress` event on GET /v1/jobs/{id}/events. Counters are
// monotonically non-decreasing over a job's lifetime. State: running |
// done | failed. Result holds the final VerifyReport (byte-identical to
// the single-process engine's) once State is done; Error the failure
// message once State is failed.
type SweepStatus struct {
	JobID       string          `json:"job_id"`
	State       string          `json:"state"`
	ShardsTotal int             `json:"shards_total"`
	ShardsDone  int             `json:"shards_done"`
	Resumed     int             `json:"resumed"`
	Tested      int64           `json:"tested"`
	Blocked     int64           `json:"blocked"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// FailuresRequest configures a fault-injection campaign (POST
// /v1/failures): for every failure count k = 0..max_failures it draws
// `samples` failure sets of the scenario, rebuilds each fault-aware
// routing scheme against each set, and measures `trials` random
// permutations per set, reporting a degradation curve per scheme.
type FailuresRequest struct {
	// Scenario: links (k random trunk cables) | tops (k random top
	// switches) | tops-correlated (a contiguous block of k tops — a
	// shared power/firmware domain) | pods (k whole bottom switches with
	// their hosts).
	Scenario string `json:"scenario"`
	// MaxFailures is the largest failure count k swept; 0 means the
	// server default.
	MaxFailures int `json:"max_failures,omitempty"`
	// Samples is the number of failure sets drawn per k ≥ 1 (k = 0 runs
	// once — the pristine fabric needs no sampling).
	Samples int `json:"samples,omitempty"`
	// Trials is the number of random permutations measured per failure
	// set per scheme.
	Trials int `json:"trials,omitempty"`
	// Schemes are campaign scheme names (adaptive-avoiding |
	// spared-deterministic | naive-remap | local-reroute); empty selects
	// all four.
	Schemes []string `json:"schemes,omitempty"`
	// Sim additionally runs an open-loop simulation at offered load 1.0
	// per failure set and reports the mean accepted load.
	Sim bool `json:"sim,omitempty"`
}

// FailuresReport is the POST /v1/failures response: one degradation curve
// per routing scheme. Curves are ordered as requested and points by
// ascending failure count.
type FailuresReport struct {
	Network     string         `json:"network"`
	Hosts       int            `json:"hosts"`
	Scenario    string         `json:"scenario"`
	MaxFailures int            `json:"max_failures"`
	Samples     int            `json:"samples"`
	Trials      int            `json:"trials"`
	Seed        int64          `json:"seed"`
	Sim         bool           `json:"sim"`
	Curves      []FailureCurve `json:"curves"`
}

// FailureCurve is one scheme's nonblocking-margin-vs-failures curve.
type FailureCurve struct {
	Scheme string         `json:"scheme"`
	Points []FailurePoint `json:"points"`
}

// FailurePoint aggregates every sampled failure set with k failures for
// one scheme.
type FailurePoint struct {
	// Failures is k, the failure count of this point.
	Failures int `json:"failures"`
	// Samples is the number of failure sets aggregated here.
	Samples int `json:"samples"`
	// RouterFailures counts samples where the scheme could not even be
	// instantiated (e.g. spares exhausted) — every pattern of such a
	// sample is lost and is also counted in RouteFailures.
	RouterFailures int `json:"router_failures,omitempty"`
	// Patterns is the total number of patterns tested (samples × trials).
	Patterns int `json:"patterns"`
	// RouteFailures counts patterns the scheme failed to route at all.
	RouteFailures int `json:"route_failures,omitempty"`
	// Blocked counts routed patterns with link contention.
	Blocked int `json:"blocked"`
	// DegradedFrac is the fraction of patterns that were blocked or
	// unroutable: (Blocked+RouteFailures)/Patterns — the "nonblocking
	// margin" is its complement.
	DegradedFrac float64 `json:"degraded_frac"`
	// MaxLinkLoad is the worst link load over all routed patterns.
	MaxLinkLoad int `json:"max_link_load"`
	// MeanMaxLoad averages each routed pattern's max link load.
	MeanMaxLoad float64 `json:"mean_max_load"`
	// AcceptedLoad is the mean open-loop accepted load at offered 1.0
	// over simulated samples (Sim only; 0 when disabled or nothing
	// simulated). MinAcceptedLoad is the worst sample.
	AcceptedLoad    float64 `json:"accepted_load,omitempty"`
	MinAcceptedLoad float64 `json:"min_accepted_load,omitempty"`
}

// ErrorReport is the JSON body of every non-2xx nbserve response.
type ErrorReport struct {
	Error string `json:"error"`
}
