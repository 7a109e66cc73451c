package server

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// errBadRequest wraps validation failures (unknown topology/routing/
// pattern, malformed sizes) so the handler maps them to 400 instead of
// 500. Engine failures (routing errors mid-sweep) stay unwrapped.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// normalize fills CLI-equivalent defaults in place. It runs before
// validation and cache keying, so a request spelling out the defaults and
// one omitting them share a cache entry. It only fills absent values —
// range enforcement is endpoint.prepare's (validateCommon's) responsibility,
// and Seed distinguishes absent (nil → 1) from an explicit zero.
func normalize(q *api.Request) {
	if q.Topo == "" {
		q.Topo = "ftree"
	}
	if q.N == 0 {
		q.N = 4
	}
	if q.M == 0 {
		q.M = q.N * q.N
	}
	if q.R == 0 {
		q.R = 20
	}
	if q.Ports == 0 {
		q.Ports = 20
	}
	if q.Levels == 0 {
		q.Levels = 2
	}
	if q.Routing == "" {
		if q.Topo == "mnt" {
			q.Routing = "mnt-dest-mod"
		} else {
			q.Routing = "paper"
		}
	}
	if q.Mode == "" {
		q.Mode = "auto"
	}
	if q.Trials == 0 {
		q.Trials = 500
	}
	if q.Seed == nil {
		q.Seed = api.SeedPtr(1)
	}
	if q.MaxExhaustive == 0 {
		q.MaxExhaustive = 9
	}
	if q.Restarts == 0 {
		q.Restarts = 8
	}
	if q.Steps == 0 {
		q.Steps = 400
	}
	if q.Pattern == "" {
		q.Pattern = "random"
	}
	if q.Flits == 0 {
		q.Flits = 4
	}
	if q.Pkts == 0 {
		q.Pkts = 8
	}
	if q.Arbiter == "" {
		q.Arbiter = "round-robin"
	}
	normalizeFailures(q)
}

// target is a constructed topology + router pair shared by the runners.
type target struct {
	net    *topology.Network
	hosts  int
	router routing.Router
	ftree  *topology.FoldedClos // nil for mnt
}

// buildTarget constructs the requested topology and router by their CLI
// names (routing.NewFtreeRouter on ftree). Every failure is a bad request:
// the engines only see targets that exist.
func buildTarget(q *api.Request) (*target, error) {
	switch q.Topo {
	case "ftree":
		if q.N < 1 || q.M < 1 || q.R < 1 {
			return nil, badRequest("ftree needs n, m, r >= 1 (have %d, %d, %d)", q.N, q.M, q.R)
		}
		f := topology.NewFoldedClos(q.N, q.M, q.R)
		t := &target{net: f.Net, hosts: f.Ports(), ftree: f}
		r, err := routing.NewFtreeRouter(f, q.Routing, q.SprayWidth, q.SeedValue())
		if errors.Is(err, routing.ErrUnknownScheme) {
			return nil, badRequest("routing %q not available on ftree", q.Routing)
		}
		if err != nil {
			return nil, badRequest("%v", err)
		}
		t.router = r
		return t, nil
	case "mnt":
		if q.Ports < 2 || q.Levels < 1 {
			return nil, badRequest("mnt needs ports >= 2 and levels >= 1 (have %d, %d)", q.Ports, q.Levels)
		}
		mt := topology.NewMPortNTree(q.Ports, q.Levels)
		t := &target{net: mt.Net, hosts: mt.Hosts()}
		switch q.Routing {
		case "mnt-dest-mod":
			t.router = routing.NewMNTDestMod(mt)
		case "mnt-random":
			t.router = routing.NewMNTRandomFixed(mt, q.SeedValue())
		default:
			return nil, badRequest("routing %q not available on mnt", q.Routing)
		}
		return t, nil
	default:
		return nil, badRequest("unknown topology %q", q.Topo)
	}
}

// symBlockSize is the hosts-per-bottom-switch block size the symmetry
// group acts on: n for ftree(n+m, r), ports/2 (hosts per leaf switch) for
// the m-port n-tree. Where the resulting group does not actually commute
// with the routing, the engine's equivariance certificate rejects it and
// the sweep falls back — still byte-identical — so this only has to name
// the fabric's natural block.
func symBlockSize(q *api.Request, t *target) int {
	if t.ftree != nil {
		return q.N
	}
	return q.Ports / 2
}

// runVerify answers POST /v1/verify: the nbverify decision procedure with
// cancellation. Mode auto uses the exact Lemma-1 analysis for single-path
// routers, an exhaustive sweep up to max_exhaustive hosts, and the
// randomized+structured sweep beyond; exhaustive | exhaustive-parallel |
// random force a sweep engine. sym_reduce asks the exhaustive engines to
// sweep orbit representatives of the fabric's block symmetry group
// instead of all hosts! patterns; the report is byte-identical either
// way (the engine falls back to the full sweep where the reduction does
// not apply), which is why sym_reduce stays out of the cache key.
func runVerify(ctx context.Context, q *api.Request) (any, error) {
	t, err := buildTarget(q)
	if err != nil {
		return nil, err
	}
	rep := &api.VerifyReport{Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name()}

	mode := q.Mode
	if mode == "auto" || mode == "exact" {
		if pr, ok := t.router.(routing.PairRouter); ok {
			res, err := analysis.CheckLemma1AllPairs(pr, t.hosts)
			if err != nil {
				return nil, err
			}
			rep.Method, rep.Exact = "lemma1-exact", true
			if res.Nonblocking {
				rep.Verdict = "nonblocking"
				return rep, nil
			}
			rep.Verdict = "blocking"
			w, err := analysis.BlockingWitness(res, t.hosts)
			if err != nil {
				return nil, err
			}
			rep.Witness = w.String()
			return rep, nil
		}
		if mode == "exact" {
			return nil, badRequest("mode exact needs a single-path deterministic routing (got %s)", t.router.Name())
		}
		if t.hosts <= q.MaxExhaustive {
			mode = "exhaustive"
		} else {
			mode = "random"
		}
	}

	var res *analysis.SweepResult
	switch mode {
	case "exhaustive", "exhaustive-parallel":
		rep.Method, rep.Exact = mode, true
		spec := analysis.Spec{FirstBlocked: q.FirstBlocked}
		if mode == "exhaustive-parallel" {
			spec.Parallel, spec.Workers = true, q.Workers
		} else if q.FirstBlocked {
			rep.Method = "exhaustive-first-blocked"
		}
		if q.SymReduce {
			spec.SymBlock = symBlockSize(q, t)
		}
		res, _, err = analysis.Sweep(ctx, t.router, t.hosts, spec)
	case "random":
		rep.Method = "random"
		res, err = analysis.SweepRandomCtx(ctx, t.router, t.hosts, q.Trials, q.SeedValue())
	default:
		return nil, badRequest("unknown verify mode %q", q.Mode)
	}
	if err != nil {
		return nil, err
	}
	if res.RouteErr != nil {
		return nil, res.RouteErr
	}
	return sweepVerdict(rep, res), nil
}

// sweepVerdict fills rep's counters, verdict and witness from a finished
// sweep and returns it.
func sweepVerdict(rep *api.VerifyReport, res *analysis.SweepResult) *api.VerifyReport {
	rep.Tested, rep.Blocked, rep.MaxLinkLoad = res.Tested, res.Blocked, res.MaxLinkLoad
	rep.Verdict = "no-blocking-found"
	if res.Blocked > 0 {
		rep.Verdict, rep.Witness = "blocking", res.FirstBlocked.String()
	}
	return rep
}

// runShard answers POST /v1/verify/shard: one prefix shard of an
// exhaustive sweep, the worker half of the distributed coordinator. The
// raw per-shard SweepResult is returned unmerged; a routing failure is
// shard data (RouteErr in the report), not an HTTP error, so the
// coordinator can tell "shard finished and found a route error" apart
// from transport failures it should retry.
func runShard(ctx context.Context, q *api.Request) (any, error) {
	t, err := buildTarget(q)
	if err != nil {
		return nil, err
	}
	// The shard endpoint always runs a shard engine: an omitted prefix is
	// the one shard covering the whole space, never the sequential sweep.
	spec := analysis.Spec{Prefix: append([]int{}, q.ShardPrefix...)}
	shard := api.ShardID(q.ShardPrefix)
	if len(q.SymShard) == 2 {
		// A symmetry-reduced shard: one range of the orbit enumeration,
		// counters already scaled by orbit size.
		spec = analysis.Spec{SymBlock: symBlockSize(q, t), SymShard: q.SymShard}
		shard = api.SymShardID(q.SymShard[0], q.SymShard[1])
	}
	res, stats, err := analysis.Sweep(ctx, t.router, t.hosts, spec)
	if err != nil {
		if stats != nil && stats.Reason != "" {
			// The coordinator plans sym shards only after proving
			// applicability, so a worker that cannot apply the reduction is
			// misconfigured relative to its coordinator — a fatal 400, never
			// a silent fallback (the counters would not mean the same thing).
			return nil, badRequest("symmetry reduction not applicable here: %s", stats.Reason)
		}
		return nil, err
	}
	rep := &api.ShardReport{
		Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name(),
		Shard:  shard,
		Tested: res.Tested, Blocked: res.Blocked, MaxLinkLoad: res.MaxLinkLoad,
	}
	if res.FirstBlocked != nil {
		// A sym shard's witness signals blockedness only: the coordinator
		// re-derives the full-order witness itself.
		rep.FirstBlocked = res.FirstBlocked.String()
	}
	if res.RouteErr != nil {
		rep.RouteErr = res.RouteErr.Error()
	}
	return rep, nil
}

// runWorstCase answers POST /v1/worstcase: the adversarial hill-climbing
// search for maximally contended permutations.
func runWorstCase(ctx context.Context, q *api.Request) (any, error) {
	t, err := buildTarget(q)
	if err != nil {
		return nil, err
	}
	s := &analysis.WorstCaseSearch{
		Router: t.router, Hosts: t.hosts,
		Restarts: q.Restarts, Steps: q.Steps, Seed: q.SeedValue(),
	}
	res, err := s.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	rep := &api.WorstCaseReport{
		Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name(),
		ContendedLinks: res.ContendedLinks, MaxLinkLoad: res.MaxLoad,
		Evaluated: res.Evaluated,
	}
	if res.Permutation != nil {
		rep.Permutation = res.Permutation.String()
	}
	return rep, nil
}

// runSim answers POST /v1/sim and nbsim with the `nbsim -json` report;
// validateSim has pinned the arbiter, the pattern name and open_loop's
// topology. The packet simulators do not poll mid-run — cancellation is
// honored between the queue and the start of the simulation — so
// deadlines bound queue wait plus one run.
func runSim(ctx context.Context, q *api.Request) (any, error) {
	t, err := buildTarget(q)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{PacketFlits: q.Flits, PacketsPerPair: q.Pkts, Seed: q.SeedValue(), Arbiter: sim.RoundRobin}
	if q.Arbiter == "oldest-first" {
		cfg.Arbiter = sim.OldestFirst
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &api.SimReport{
		Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name(),
		PacketFlits: q.Flits, Arbiter: cfg.Arbiter.String(),
	}

	if q.OpenLoop {
		pr, ok := t.router.(routing.PairRouter)
		if !ok {
			return nil, badRequest("open_loop needs a single-path deterministic routing (got %s)", t.router.Name())
		}
		perm := permutation.SwitchShift(q.N, q.R, 1)
		dst := make([]int, perm.N())
		for i := 0; i < perm.N(); i++ {
			dst[i] = perm.Dst(i)
		}
		pairs := sim.PermPairs(dst)
		base := sim.OpenLoopConfig{
			PacketFlits:     q.Flits,
			WarmupPackets:   20,
			MeasuredPackets: 100,
			Seed:            q.SeedValue(),
			Arbiter:         cfg.Arbiter,
			Collector:       sim.NewMetricsCollector(),
		}
		rates := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
		points, err := sim.LoadSweepParallel(t.net, pairs, sim.PairPathsFunc(pr), rates, base)
		if err != nil {
			return nil, err
		}
		rep.Mode, rep.Pattern, rep.Sweep = "open-loop", "switch-shift", points
		return rep, nil
	}

	if q.Pattern == "random" {
		sum, err := sim.CompareToCrossbar(t.net, t.router, t.hosts, q.Trials, q.Workers, q.SeedValue(), cfg)
		if err != nil {
			return nil, err
		}
		rep.Mode, rep.Pattern, rep.PacketsPerPair, rep.Trials = "random-trials", "random", q.Pkts, sum
		return rep, nil
	}

	var p *permutation.Permutation
	switch q.Pattern {
	case "shift":
		p = permutation.Shift(t.hosts, t.hosts/2)
	case "rotate":
		if t.ftree == nil {
			return nil, badRequest("pattern rotate needs topo ftree")
		}
		p = permutation.LocalRotate(q.N, q.R)
	case "transpose":
		d := 2
		for d*d < t.hosts {
			d++
		}
		if d*d != t.hosts {
			return nil, badRequest("transpose needs a square host count, have %d", t.hosts)
		}
		p = permutation.Transpose(d, d)
	default:
		return nil, badRequest("unknown pattern %q", q.Pattern)
	}
	cfg.Collector = sim.NewMetricsCollector()
	a, res, err := sim.RunPermutation(t.net, t.router, p, cfg)
	if err != nil {
		return nil, err
	}
	if res.Metrics != nil {
		// Detach from the collector before the crossbar reference reuses it.
		res.Metrics = res.Metrics.Clone()
	}
	cfg.Collector = nil
	chk := analysis.Check(a)
	ref, err := sim.CrossbarReference(t.hosts, p, cfg)
	if err != nil {
		return nil, err
	}
	rep.Mode, rep.Pattern, rep.PacketsPerPair = "closed-loop", q.Pattern, q.Pkts
	rep.Closed = &api.ClosedReport{
		Pairs:            p.Size(),
		ContendedLinks:   len(chk.Contended),
		MaxLinkLoad:      chk.MaxLoad,
		Makespan:         res.Makespan,
		CrossbarMakespan: ref.Makespan,
		Slowdown:         res.Slowdown(ref),
		MeanLatency:      res.MeanLatency(),
		Metrics:          res.Metrics,
	}
	return rep, nil
}
