package server

import (
	"context"
	"encoding/json"

	"repro/internal/api"
)

// Job is one engine behind the HTTP surface. The three endpoints (verify,
// worstcase, sim) are instances of this interface, and everything above it
// — the handler pipeline, the result store, the batch endpoint — is
// engine-agnostic: decode → normalize → Validate → Key → store lookup →
// Run on the worker pool → Encode → store fill. Adding an engine is one
// registry entry, and a validation rule added here holds on every path
// that can reach a worker (single requests and batch items alike).
type Job interface {
	// Op names the job: its /v1/<op> route and its metrics key.
	Op() string
	// Validate rejects out-of-range or dangerous parameters with an
	// errBadRequest before the request can occupy a worker. It runs on
	// normalized requests.
	Validate(q *api.Request) error
	// Key is the canonical result-store key for a normalized request.
	// Equal keys compute byte-identical responses.
	Key(q *api.Request) string
	// Run executes the engine under ctx (deadline + client disconnect).
	Run(ctx context.Context, q *api.Request) (any, error)
	// Encode marshals Run's report into the response body bytes.
	Encode(v any) ([]byte, error)
}

// jobDef is the shared Job implementation: a name plus validate/run hooks.
// Key and Encode are uniform across engines (canonicalized request key,
// JSON body).
type jobDef struct {
	op       string
	validate func(q *api.Request) error
	run      func(ctx context.Context, q *api.Request) (any, error)
}

func (j *jobDef) Op() string { return j.op }

func (j *jobDef) Validate(q *api.Request) error {
	if err := validateCommon(q); err != nil {
		return err
	}
	return j.validate(q)
}

func (j *jobDef) Key(q *api.Request) string { return q.CacheKey(j.op) }

func (j *jobDef) Run(ctx context.Context, q *api.Request) (any, error) {
	return j.run(ctx, q)
}

func (j *jobDef) Encode(v any) ([]byte, error) { return json.Marshal(v) }

// The job registry. Handler() derives the /v1/* routes from it, and the
// batch endpoint reuses verifyJob for its items.
var (
	verifyJob    Job = &jobDef{op: "verify", validate: validateVerify, run: runVerify}
	shardJob     Job = &jobDef{op: "verify/shard", validate: validateShard, run: runShard}
	worstcaseJob Job = &jobDef{op: "worstcase", validate: validateWorstCase, run: runWorstCase}
	simJob       Job = &jobDef{op: "sim", validate: validateSim, run: runSim}
	failuresJob  Job = &jobDef{op: "failures", validate: validateFailures, run: runFailures}

	jobs = []Job{verifyJob, shardJob, worstcaseJob, simJob, failuresJob}
)

// Service-wide size caps. A request may not build a topology bigger than
// this no matter what it asks for: topology construction happens on a
// worker and cannot be cancelled by a deadline, so an absurd size would
// monopolize (or OOM) the pool. The CLIs remain uncapped.
const (
	maxRequestHosts  = 1 << 20 // hosts in the requested topology
	maxRequestLinks  = 1 << 22 // duplex links in the requested topology
	maxRequestLevels = 64      // mnt levels; 2^64 hosts saturates any k >= 2
)

// requestHosts computes the host count of the requested topology without
// building it (ftree: n·r; mnt: ports for one level, 2·(ports/2)^levels
// above). Saturates at maxRequestHosts+1 instead of overflowing.
func requestHosts(q *api.Request) int {
	if q.Topo == "mnt" {
		if q.Levels == 1 {
			return q.Ports
		}
		if q.Levels > maxRequestLevels {
			return maxRequestHosts + 1
		}
		k, h := q.Ports/2, 2
		if k < 2 {
			// ports=2 gives k=1: h never grows, so don't loop q.Levels
			// times — an absurd levels value must cost O(1) here, not CPU.
			return h
		}
		for i := 0; i < q.Levels; i++ {
			if h > maxRequestHosts || k > maxRequestHosts {
				return maxRequestHosts + 1
			}
			h *= k
		}
		return h
	}
	if q.N > maxRequestHosts || q.R > maxRequestHosts {
		return maxRequestHosts + 1
	}
	return q.N * q.R
}

// requestLinks estimates the duplex link count (ftree: r bottom switches
// with n host links and m uplinks each; mnt: one up-link per host per
// level). Saturates like requestHosts.
func requestLinks(q *api.Request) int {
	if q.Topo == "mnt" {
		h := requestHosts(q)
		if h > maxRequestHosts || q.Levels > maxRequestLevels {
			return maxRequestLinks + 1
		}
		return h * q.Levels
	}
	// Cap every factor individually before multiplying: q.N+q.M itself can
	// signed-overflow for huge m (e.g. 2^62), sailing a negative sum past
	// the old `q.N+q.M > maxRequestLinks` comparison. With each factor
	// bounded by maxRequestLinks (2^22) the int64 product is at most 2^45
	// and cannot overflow, so the estimate saturates instead of wrapping.
	if q.R > maxRequestLinks || q.N > maxRequestLinks || q.M > maxRequestLinks {
		return maxRequestLinks + 1
	}
	if v := int64(q.R) * (int64(q.N) + int64(q.M)); v <= maxRequestLinks {
		return int(v)
	}
	return maxRequestLinks + 1
}

// validateCommon enforces the execution-parameter ranges shared by every
// job. normalize only fills zero values, so anything negative a client
// sent is still here to be caught — this is the single enforcement point
// that replaces per-endpoint patches.
func validateCommon(q *api.Request) error {
	for _, p := range []struct {
		name string
		v    int
	}{
		{"n", q.N}, {"m", q.M}, {"r", q.R},
		{"ports", q.Ports}, {"levels", q.Levels},
		{"trials", q.Trials}, {"flits", q.Flits}, {"pkts", q.Pkts},
		{"steps", q.Steps}, {"restarts", q.Restarts},
		{"max_exhaustive", q.MaxExhaustive},
	} {
		if p.v < 1 {
			return badRequest("%s must be >= 1 (have %d)", p.name, p.v)
		}
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"workers", q.Workers}, {"spray_width", q.SprayWidth},
	} {
		if p.v < 0 {
			return badRequest("%s must be >= 0 (have %d)", p.name, p.v)
		}
	}
	if q.TimeoutMs < 0 {
		return badRequest("timeout_ms must be >= 0 (have %d)", q.TimeoutMs)
	}
	if q.Topo == "mnt" && q.Ports%2 != 0 {
		return badRequest("mnt ports must be even (have %d)", q.Ports)
	}
	if q.Topo == "mnt" && q.Levels > maxRequestLevels {
		return badRequest("levels must be <= %d (have %d)", maxRequestLevels, q.Levels)
	}
	if h := requestHosts(q); h > maxRequestHosts {
		return badRequest("requested topology exceeds %d hosts; use the CLIs for offline runs at this size", maxRequestHosts)
	}
	if l := requestLinks(q); l > maxRequestLinks {
		return badRequest("requested topology exceeds %d links; use the CLIs for offline runs at this size", maxRequestLinks)
	}
	return nil
}

// validateVerify refuses engine options the mode cannot honor, and forced
// exhaustive sweeps whose factorial pattern space exceeds the
// max_exhaustive cap — previously such a request (80 hosts → 80!
// patterns) started enumerating and only a deadline could kill it.
// Raising max_exhaustive in the request is the explicit opt-in.
func validateVerify(q *api.Request) error {
	if len(q.ShardPrefix) > 0 {
		return badRequest("shard_prefix is only valid on /v1/verify/shard")
	}
	if len(q.SymShard) > 0 {
		return badRequest("sym_shard is only valid on /v1/verify/shard")
	}
	if q.Failures != nil {
		return badRequest("failures block is only valid on /v1/failures")
	}
	switch q.Mode {
	case "auto", "exact", "exhaustive", "exhaustive-parallel", "random":
	default:
		return badRequest("unknown verify mode %q", q.Mode)
	}
	if q.SymReduce && (q.Mode == "random" || q.Mode == "exact") {
		return badRequest("sym_reduce applies to exhaustive sweeps only (mode %q)", q.Mode)
	}
	if q.FirstBlocked && q.Mode != "auto" && q.Mode != "exhaustive" {
		// The parallel pool and the sampled and exact engines have no
		// early exit: the flag would be ignored yet split the cache key.
		return badRequest("first_blocked applies to mode exhaustive (or auto) only (mode %q)", q.Mode)
	}
	if q.Mode == "exhaustive" || q.Mode == "exhaustive-parallel" {
		if h := requestHosts(q); h > q.MaxExhaustive {
			return badRequest("forced %s sweep over %d hosts exceeds max_exhaustive=%d (%d! patterns); raise max_exhaustive explicitly or use mode random",
				q.Mode, h, q.MaxExhaustive, h)
		}
	}
	return nil
}

// validateShard guards the worker half of the distributed sweep: the
// prefix must name a real shard of the requested topology's host space,
// and the shard's own pattern count ((hosts−len(prefix))! enumerated
// permutations) is held to the same max_exhaustive opt-in as a forced
// exhaustive sweep — a coordinator fanning a big sweep raises
// max_exhaustive explicitly on every shard request.
func validateShard(q *api.Request) error {
	if q.Failures != nil {
		return badRequest("failures block is only valid on /v1/failures")
	}
	h := requestHosts(q)
	if len(q.SymShard) > 0 {
		// A symmetry-reduced shard: one contiguous range of top-level
		// necklace indices of the orbit enumeration. The range's exact upper
		// bound depends on the necklace alphabet, which the engine validates
		// when it builds the group; here we enforce the request shape plus
		// the same max_exhaustive opt-in a full sweep over these hosts needs,
		// since orbit counters are scaled back to hosts! patterns.
		if !q.SymReduce {
			return badRequest("sym_shard requires sym_reduce")
		}
		if len(q.ShardPrefix) > 0 {
			return badRequest("sym_shard and shard_prefix are mutually exclusive")
		}
		if len(q.SymShard) != 2 {
			return badRequest("sym_shard must be [lo, hi), have %d entries", len(q.SymShard))
		}
		if lo, hi := q.SymShard[0], q.SymShard[1]; lo < 0 || hi <= lo {
			return badRequest("sym_shard range [%d, %d) is empty or negative", lo, hi)
		}
		if h > q.MaxExhaustive {
			return badRequest("sym shard sweeps %d hosts, exceeds max_exhaustive=%d (%d! patterns); raise max_exhaustive explicitly",
				h, q.MaxExhaustive, h)
		}
		return nil
	}
	if q.SymReduce {
		return badRequest("sym_reduce on /v1/verify/shard requires sym_shard")
	}
	if len(q.ShardPrefix) > h {
		return badRequest("shard_prefix has %d entries for %d hosts", len(q.ShardPrefix), h)
	}
	seen := make(map[int]bool, len(q.ShardPrefix))
	for _, d := range q.ShardPrefix {
		if d < 0 || d >= h {
			return badRequest("shard_prefix destination %d out of range [0,%d)", d, h)
		}
		if seen[d] {
			return badRequest("shard_prefix repeats destination %d", d)
		}
		seen[d] = true
	}
	if free := h - len(q.ShardPrefix); free > q.MaxExhaustive {
		return badRequest("shard sweeps %d free hosts, exceeds max_exhaustive=%d (%d! patterns); raise max_exhaustive explicitly",
			free, q.MaxExhaustive, free)
	}
	return nil
}

func validateWorstCase(q *api.Request) error {
	if len(q.ShardPrefix) > 0 {
		return badRequest("shard_prefix is only valid on /v1/verify/shard")
	}
	if len(q.SymShard) > 0 {
		return badRequest("sym_shard is only valid on /v1/verify/shard")
	}
	if q.SymReduce {
		return badRequest("sym_reduce is only valid on verify endpoints")
	}
	if q.Failures != nil {
		return badRequest("failures block is only valid on /v1/failures")
	}
	return nil
}

func validateSim(q *api.Request) error {
	if len(q.ShardPrefix) > 0 {
		return badRequest("shard_prefix is only valid on /v1/verify/shard")
	}
	if len(q.SymShard) > 0 {
		return badRequest("sym_shard is only valid on /v1/verify/shard")
	}
	if q.SymReduce {
		return badRequest("sym_reduce is only valid on verify endpoints")
	}
	if q.Failures != nil {
		return badRequest("failures block is only valid on /v1/failures")
	}
	switch q.Arbiter {
	case "round-robin", "oldest-first":
	default:
		return badRequest("unknown arbiter %q", q.Arbiter)
	}
	switch q.Pattern {
	case "random", "shift", "rotate", "transpose":
	default:
		return badRequest("unknown pattern %q", q.Pattern)
	}
	if q.OpenLoop && q.Topo != "ftree" {
		return badRequest("open_loop supports topo ftree only")
	}
	return nil
}
