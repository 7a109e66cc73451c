package server

import (
	"context"
	"encoding/json"

	"repro/internal/api"
)

// endpoint is one engine behind the HTTP surface: verify, verify/shard,
// worstcase, sim and failures. Every caller of an engine — the handler
// pipeline, batch items, sweeps, design probes and the CLIs — enters
// through the same path: prepare (normalize → validate), key, then run on
// a worker. A validation rule added here therefore holds on every path
// that can reach a worker.
type endpoint struct {
	op       string                     // the /v1/<op> route and metrics key
	validate func(q *api.Request) error // the endpoint's own rules; nil for none
	run      func(ctx context.Context, q *api.Request) (any, error)
}

// prepare normalizes q in place, then rejects it with an errBadRequest
// before it can occupy a worker: the shared ranges and caps first, then
// fields that belong to another endpoint, then the endpoint's own rules.
func (e *endpoint) prepare(q *api.Request) error {
	normalize(q)
	if err := validateCommon(q); err != nil {
		return err
	}
	if err := rejectForeign(e.op, q); err != nil {
		return err
	}
	if e.validate == nil {
		return nil
	}
	return e.validate(q)
}

// key is the canonical result-store key of a prepared request. Equal keys
// compute byte-identical responses.
func (e *endpoint) key(q *api.Request) string { return q.CacheKey(e.op) }

// body runs the engine under ctx (deadline + client disconnect) and
// marshals its report into the response body bytes.
func (e *endpoint) body(ctx context.Context, q *api.Request) ([]byte, error) {
	out, err := e.run(ctx, q)
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// The endpoint registry. Handler() derives the /v1/* routes from it, and
// the batch and sweep endpoints reuse verifyEndpoint.
var (
	verifyEndpoint = &endpoint{op: "verify", validate: validateVerify, run: runVerify}
	simEndpoint    = &endpoint{op: "sim", validate: validateSim, run: runSim}

	endpoints = []*endpoint{
		verifyEndpoint,
		{op: "verify/shard", validate: validateShard, run: runShard},
		{op: "worstcase", run: runWorstCase},
		simEndpoint,
		{op: "failures", validate: validateFailures, run: runFailures},
	}
)

// runRequest answers q with POST /v1/<e.op> semantics — prepare, then run
// — without a server instance.
func runRequest[R any](ctx context.Context, e *endpoint, q *api.Request) (R, error) {
	var zero R
	if err := e.prepare(q); err != nil {
		return zero, err
	}
	out, err := e.run(ctx, q)
	if err != nil {
		return zero, err
	}
	return out.(R), nil
}

// RunVerifyRequest answers one verification request with POST /v1/verify
// semantics. cmd/nbdesign's local mode feeds the planner through this.
func RunVerifyRequest(ctx context.Context, q *api.Request) (*api.VerifyReport, error) {
	return runRequest[*api.VerifyReport](ctx, verifyEndpoint, q)
}

// RunSimRequest answers one simulation request with POST /v1/sim
// semantics; cmd/nbsim is a thin client of it. q is normalized in place,
// so the caller reads the effective parameters back from it.
func RunSimRequest(ctx context.Context, q *api.Request) (*api.SimReport, error) {
	return runRequest[*api.SimReport](ctx, simEndpoint, q)
}

// Service-wide size caps. A request may not build a topology bigger than
// this no matter what it asks for: topology construction happens on a
// worker and cannot be cancelled by a deadline, so an absurd size would
// monopolize (or OOM) the pool. nbsim and nbdesign's local mode enter
// through the same path and take the same caps; nbverify and nbtables
// stay uncapped.
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

// rejectForeign refuses fields that belong to another endpoint: the shard
// fields outside /v1/verify/shard, sym_reduce outside the verify
// endpoints, and a failures block outside /v1/failures.
func rejectForeign(op string, q *api.Request) error {
	if op != "verify/shard" {
		if len(q.ShardPrefix) > 0 {
			return badRequest("shard_prefix is only valid on /v1/verify/shard")
		}
		if len(q.SymShard) > 0 {
			return badRequest("sym_shard is only valid on /v1/verify/shard")
		}
		if q.SymReduce && op != "verify" {
			return badRequest("sym_reduce is only valid on verify endpoints")
		}
	}
	if q.Failures != nil && op != "failures" {
		return badRequest("failures block is only valid on /v1/failures")
	}
	return nil
}

// validateVerify refuses engine options the mode cannot honor, and forced
// exhaustive sweeps whose factorial pattern space exceeds the
// max_exhaustive cap — previously such a request (80 hosts → 80!
// patterns) started enumerating and only a deadline could kill it.
// Raising max_exhaustive in the request is the explicit opt-in.
func validateVerify(q *api.Request) error {
	if _, ok := verifyRungs[q.Mode]; !ok {
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

func validateSim(q *api.Request) error {
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
