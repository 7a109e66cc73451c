package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/design"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/topology"
)

// replayer re-executes stream requests without HTTP: each one calls the
// public functions the server would call for it, in the same order, with
// a span around every call. Its store has the server's default capacity,
// so hits and misses follow the stream as they do on a node.
//
// The server's own glue (normalize, the job registry, the coordinator's
// merge) is unexported; where the replay needs it, it is restated here
// and checked by comparing every replayed answer with the HTTP answer.
type replayer struct {
	tr    *tracer
	store *store.Memory

	// Campaign and design counters, aggregated where the work happens.
	campaigns, cells, cellMallocs int64
	routed, attempted             int64
	designs, tier0, candidates    int64
	memoHits, freshRuns           int64
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, store: store.NewMemory(256)}
}

// errInfeasible marks a request the server would refuse with a 400 before
// running it; design probes map it to design.ErrInfeasible as the
// server's probe adapter does.
var errInfeasible = errors.New("not constructible")

// replay runs request id under a root span and returns the digest of its
// answer (see digest).
func (rp *replayer) replay(id int, r *request) (string, error) {
	rp.tr.req = int32(id)
	root := rp.tr.begin("server." + r.Class)
	defer rp.tr.end(root)
	switch r.Path {
	case "/v1/verify":
		return rp.single(r, "verify", rp.verify)
	case "/v1/worstcase":
		return rp.single(r, "worstcase", rp.worstCase)
	case "/v1/sim":
		return rp.single(r, "sim", rp.sim)
	case "/v1/failures":
		return rp.single(r, "failures", rp.failures)
	case "/v1/verify/batch":
		return rp.batch(r)
	case "/v1/verify/sweep":
		return rp.sweep(r)
	case "/v1/design":
		return rp.design(r)
	}
	return "", fmt.Errorf("replay: no replay for %s", r.Path)
}

func (rp *replayer) decode(body []byte, v any) error {
	s := rp.tr.begin("api.decode")
	defer rp.tr.end(s)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (rp *replayer) encode(v any) ([]byte, error) {
	s := rp.tr.begin("api.encode")
	defer rp.tr.end(s)
	return json.Marshal(v)
}

func (rp *replayer) cacheKey(q *api.Request, op string) string {
	s := rp.tr.begin("api.cache_key")
	defer rp.tr.end(s)
	return q.CacheKey(op)
}

func (rp *replayer) get(key string) ([]byte, bool) {
	s := rp.tr.begin("store.get")
	defer rp.tr.end(s)
	return rp.store.Get(key)
}

func (rp *replayer) put(key string, body []byte) {
	s := rp.tr.begin("store.put")
	defer rp.tr.end(s)
	rp.store.Put(key, body)
}

// job runs one unit of work the server would hand to its worker pool:
// the engine call and the encode of its report.
func (rp *replayer) job(q *api.Request, run func(*api.Request) (any, error)) ([]byte, error) {
	s := rp.tr.begin("server.job")
	defer rp.tr.end(s)
	out, err := run(q)
	if err != nil {
		return nil, err
	}
	return rp.encode(out)
}

// single is the job handler's pipeline: decode, key, store lookup, job,
// store fill.
func (rp *replayer) single(r *request, op string, run func(*api.Request) (any, error)) (string, error) {
	var q api.Request
	if err := rp.decode(r.Body, &q); err != nil {
		return "", err
	}
	key := rp.cacheKey(&q, op)
	if !q.NoCache {
		if body, ok := rp.get(key); ok {
			return digest(r, body)
		}
	}
	body, err := rp.job(&q, run)
	if err != nil {
		return "", err
	}
	if !q.NoCache {
		rp.put(key, body)
	}
	return digest(r, body)
}

// target is a built topology and router.
type target struct {
	net    *topology.Network
	hosts  int
	router routing.Router
	ftree  *topology.FoldedClos
}

// buildTarget restates the server's construction switch for the
// topologies and routings the streams and design catalogs use.
func (rp *replayer) buildTarget(q *api.Request) (*target, error) {
	s := rp.tr.begin("topology.build")
	t := &target{}
	var mt *topology.MPortNTree
	switch q.Topo {
	case "ftree":
		t.ftree = topology.NewFoldedClos(q.N, q.M, q.R)
		t.net, t.hosts = t.ftree.Net, t.ftree.Ports()
	case "mnt":
		mt = topology.NewMPortNTree(q.Ports, q.Levels)
		t.net, t.hosts = mt.Net, mt.Hosts()
	default:
		rp.tr.end(s)
		return nil, fmt.Errorf("%w: topology %q", errInfeasible, q.Topo)
	}
	rp.tr.end(s)

	s = rp.tr.begin("routing.router")
	defer rp.tr.end(s)
	var err error
	if mt != nil {
		switch q.Routing {
		case "mnt-dest-mod":
			t.router = routing.NewMNTDestMod(mt)
		case "mnt-random":
			t.router = routing.NewMNTRandomFixed(mt, q.SeedValue())
		default:
			err = fmt.Errorf("routing %q not available on mnt", q.Routing)
		}
	} else {
		t.router, err = ftreeRouter(t.ftree, q)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errInfeasible, err)
	}
	return t, nil
}

func ftreeRouter(f *topology.FoldedClos, q *api.Request) (routing.Router, error) {
	switch q.Routing {
	case "paper":
		return routing.NewPaperDeterministic(f)
	case "paper-folded":
		return routing.NewPaperDeterministicFolded(f), nil
	case "dest-mod":
		return routing.NewDestMod(f), nil
	case "source-mod":
		return routing.NewSourceMod(f), nil
	case "dest-switch-mod":
		return routing.NewDestSwitchMod(f), nil
	case "random-fixed":
		return routing.NewRandomFixed(f, q.SeedValue()), nil
	case "adaptive":
		return routing.NewNonblockingAdaptive(f)
	case "greedy-local":
		return routing.NewGreedyLocal(f), nil
	case "global":
		return routing.NewGlobalRearrangeable(f), nil
	case "spray":
		if q.SprayWidth <= 0 || q.SprayWidth >= f.M {
			return routing.NewFullSpray(f), nil
		}
		return routing.NewKSpray(f, q.SprayWidth)
	}
	return nil, fmt.Errorf("routing %q not available on ftree", q.Routing)
}

func blockSize(q *api.Request, t *target) int {
	if t.ftree != nil {
		return q.N
	}
	return q.Ports / 2
}

// routeTable times the route-table build the delta engines start with.
// The engine builds its own copy inside the sweep call, so analysis self
// time includes a second build.
func (rp *replayer) routeTable(t *target) {
	s := rp.tr.begin("routing.route_table")
	tab, err := routing.BuildRouteTable(t.router, t.hosts)
	n := int64(0)
	if err == nil {
		n = int64(tab.Entries())
	}
	rp.tr.endN(s, n)
}

// verify restates runVerify: Lemma-1 for single-path routers in auto
// mode, else the requested sweep engine.
func (rp *replayer) verify(q *api.Request) (any, error) {
	t, err := rp.buildTarget(q)
	if err != nil {
		return nil, err
	}
	rep := &api.VerifyReport{Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name()}
	mode := q.Mode
	if mode == "auto" || mode == "exact" {
		if pr, ok := t.router.(routing.PairRouter); ok {
			s := rp.tr.begin("analysis.lemma1")
			res, err := analysis.CheckLemma1AllPairs(pr, t.hosts)
			rp.tr.end(s)
			if err != nil {
				return nil, err
			}
			rep.Method, rep.Exact = "lemma1-exact", true
			if res.Nonblocking {
				rep.Verdict = "nonblocking"
				return rep, nil
			}
			rep.Verdict = "blocking"
			s = rp.tr.begin("analysis.witness")
			w, err := analysis.BlockingWitness(res, t.hosts)
			rp.tr.end(s)
			if err != nil {
				return nil, err
			}
			rep.Witness = w.String()
			return rep, nil
		}
		if mode == "exact" {
			return nil, fmt.Errorf("%w: mode exact needs a single-path routing", errInfeasible)
		}
		mode = "random"
		if t.hosts <= q.MaxExhaustive {
			mode = "exhaustive"
		}
	}

	ctx := context.Background()
	var res *analysis.SweepResult
	var stats *analysis.SymStats
	if mode != "random" {
		rp.routeTable(t)
	}
	s := rp.tr.begin("analysis.sweep")
	switch mode {
	case "exhaustive":
		rep.Method, rep.Exact = "exhaustive", true
		switch {
		case q.FirstBlocked && q.SymReduce:
			rep.Method = "exhaustive-first-blocked"
			res, stats, err = analysis.SweepExhaustiveSymFirstBlockedCtx(ctx, t.router, t.hosts, blockSize(q, t))
		case q.FirstBlocked:
			rep.Method = "exhaustive-first-blocked"
			res, err = analysis.SweepExhaustiveFirstBlockedCtx(ctx, t.router, t.hosts)
		case q.SymReduce:
			res, stats, err = analysis.SweepExhaustiveSymCtx(ctx, t.router, t.hosts, blockSize(q, t))
		default:
			res, err = analysis.SweepExhaustiveCtx(ctx, t.router, t.hosts)
		}
	case "exhaustive-parallel":
		rep.Method, rep.Exact = "exhaustive-parallel", true
		if q.SymReduce {
			res, stats, err = analysis.SweepExhaustiveSymParallelProgressCtx(ctx, t.router, t.hosts, blockSize(q, t), q.Workers, nil)
		} else {
			res, err = analysis.SweepExhaustiveParallelCtx(ctx, t.router, t.hosts, q.Workers)
		}
	case "random":
		rep.Method = "random"
		res, err = analysis.SweepRandomCtx(ctx, t.router, t.hosts, q.Trials, q.SeedValue())
	default:
		err = fmt.Errorf("%w: unknown verify mode %q", errInfeasible, q.Mode)
	}
	rp.tr.endN(s, patternsRouted(res, stats))
	if err != nil {
		return nil, err
	}
	if res.RouteErr != nil {
		return nil, res.RouteErr
	}
	fillSweep(rep, res)
	return rep, nil
}

// patternsRouted is the sweep's real work: orbit representatives when a
// symmetry reduction applied, else the patterns tested.
func patternsRouted(res *analysis.SweepResult, stats *analysis.SymStats) int64 {
	switch {
	case res == nil:
		return 0
	case stats != nil && stats.Applied:
		return int64(stats.Orbits)
	}
	return int64(res.Tested)
}

func fillSweep(rep *api.VerifyReport, res *analysis.SweepResult) {
	rep.Tested, rep.Blocked, rep.MaxLinkLoad = res.Tested, res.Blocked, res.MaxLinkLoad
	rep.Verdict = "no-blocking-found"
	if res.Blocked > 0 {
		rep.Verdict = "blocking"
		rep.Witness = res.FirstBlocked.String()
	}
}

func (rp *replayer) worstCase(q *api.Request) (any, error) {
	t, err := rp.buildTarget(q)
	if err != nil {
		return nil, err
	}
	s := rp.tr.begin("analysis.worstcase")
	ws := &analysis.WorstCaseSearch{Router: t.router, Hosts: t.hosts, Restarts: q.Restarts, Steps: q.Steps, Seed: q.SeedValue()}
	res, err := ws.RunCtx(context.Background())
	rp.tr.end(s)
	if err != nil {
		return nil, err
	}
	rep := &api.WorstCaseReport{
		Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name(),
		ContendedLinks: res.ContendedLinks, MaxLinkLoad: res.MaxLoad, Evaluated: res.Evaluated,
	}
	if res.Permutation != nil {
		rep.Permutation = res.Permutation.String()
	}
	return rep, nil
}

// sim restates runSim's closed-loop structured-pattern and open-loop
// paths (the ones the streams send).
func (rp *replayer) sim(q *api.Request) (any, error) {
	t, err := rp.buildTarget(q)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{PacketFlits: q.Flits, PacketsPerPair: q.Pkts, Seed: q.SeedValue(), Arbiter: sim.RoundRobin}
	if q.Arbiter == "oldest-first" {
		cfg.Arbiter = sim.OldestFirst
	}
	rep := &api.SimReport{
		Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name(),
		PacketFlits: q.Flits, Arbiter: cfg.Arbiter.String(),
	}
	if q.OpenLoop {
		pr, ok := t.router.(routing.PairRouter)
		if !ok || t.ftree == nil {
			return nil, fmt.Errorf("%w: open_loop needs a single-path ftree routing", errInfeasible)
		}
		s := rp.tr.begin("permutation.pattern")
		perm := permutation.SwitchShift(q.N, q.R, 1)
		dst := make([]int, perm.N())
		for i := range dst {
			dst[i] = perm.Dst(i)
		}
		rp.tr.end(s)
		base := sim.OpenLoopConfig{
			PacketFlits: q.Flits, WarmupPackets: 20, MeasuredPackets: 100,
			Seed: q.SeedValue(), Arbiter: cfg.Arbiter, Collector: sim.NewMetricsCollector(),
		}
		s = rp.tr.begin("sim.run")
		points, err := sim.LoadSweepParallel(t.net, sim.PermPairs(dst), sim.PairPathsFunc(pr), []float64{0.2, 0.4, 0.6, 0.8, 1.0}, base)
		rp.tr.end(s)
		if err != nil {
			return nil, err
		}
		rep.Mode, rep.Pattern, rep.Sweep = "open-loop", "switch-shift", points
		return rep, nil
	}

	s := rp.tr.begin("permutation.pattern")
	var p *permutation.Permutation
	switch q.Pattern {
	case "shift":
		p = permutation.Shift(t.hosts, t.hosts/2)
	case "rotate":
		p = permutation.LocalRotate(q.N, q.R)
	case "transpose":
		d := 2
		for d*d < t.hosts {
			d++
		}
		p = permutation.Transpose(d, d)
	}
	rp.tr.end(s)
	if p == nil {
		return nil, fmt.Errorf("%w: pattern %q is not replayed", errInfeasible, q.Pattern)
	}
	cfg.Collector = sim.NewMetricsCollector()
	s = rp.tr.begin("sim.run")
	a, res, err := sim.RunPermutation(t.net, t.router, p, cfg)
	rp.tr.end(s)
	if err != nil {
		return nil, err
	}
	if res.Metrics != nil {
		res.Metrics = res.Metrics.Clone()
	}
	cfg.Collector = nil
	s = rp.tr.begin("analysis.check")
	chk := analysis.Check(a)
	rp.tr.end(s)
	s = rp.tr.begin("sim.crossbar")
	ref, err := sim.CrossbarReference(t.hosts, p, cfg)
	rp.tr.end(s)
	if err != nil {
		return nil, err
	}
	rep.Mode, rep.Pattern, rep.PacketsPerPair = "closed-loop", q.Pattern, q.Pkts
	rep.Closed = &api.ClosedReport{
		Pairs: p.Size(), ContendedLinks: len(chk.Contended), MaxLinkLoad: chk.MaxLoad,
		Makespan: res.Makespan, CrossbarMakespan: ref.Makespan, Slowdown: res.Slowdown(ref),
		MeanLatency: res.MeanLatency(), Metrics: res.Metrics,
	}
	return rep, nil
}

// failures restates campaign.Run cell by cell (sequentially; the report
// does not depend on the worker count) so that sampling, failure views,
// fault-router rebuilds and pattern analysis each get their own spans. The
// report carries the integer fields only: the replay compares those with
// the HTTP report, and the floats derive from them.
func (rp *replayer) failures(q *api.Request) (any, error) {
	fr := q.Failures
	s := rp.tr.begin("topology.build")
	f := topology.NewFoldedClos(q.N, q.M, q.R)
	rp.tr.end(s)
	rep := &api.FailuresReport{
		Network: f.Net.Name, Hosts: f.Ports(), Scenario: fr.Scenario, MaxFailures: fr.MaxFailures,
		Samples: fr.Samples, Trials: fr.Trials, Seed: q.SeedValue(), Sim: fr.Sim,
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cells := 0
	for _, scheme := range fr.Schemes {
		curve := api.FailureCurve{Scheme: scheme}
		for k := 0; k <= fr.MaxFailures; k++ {
			pt := api.FailurePoint{Failures: k}
			samples := fr.Samples
			if k == 0 {
				samples = 1
			}
			for smp := 0; smp < samples; smp++ {
				c := rp.cell(f, q, scheme, k, smp)
				cells++
				pt.Samples++
				if c.routerFailed {
					pt.RouterFailures++
				}
				pt.Patterns += c.patterns
				pt.RouteFailures += c.routeFailures
				pt.Blocked += c.blocked
				pt.MaxLinkLoad = max(pt.MaxLinkLoad, c.maxLinkLoad)
			}
			curve.Points = append(curve.Points, pt)
		}
		rep.Curves = append(rep.Curves, curve)
	}
	runtime.ReadMemStats(&ms1)
	rp.campaigns++
	rp.cells += int64(cells)
	rp.cellMallocs += int64(ms1.Mallocs - ms0.Mallocs)
	return rep, nil
}

type cellResult struct {
	routerFailed                                  bool
	patterns, routeFailures, blocked, maxLinkLoad int
}

// cell restates campaign's runCell: the failure set and the test patterns
// are seeded by (k, sample) only, exactly as the engine seeds them.
func (rp *replayer) cell(f *topology.FoldedClos, q *api.Request, scheme string, k, smp int) cellResult {
	fr := q.Failures
	seed := q.SeedValue()
	s := rp.tr.begin("campaign.cell")
	defer rp.tr.end(s)
	res := cellResult{}
	lost := func() cellResult {
		return cellResult{routerFailed: true, patterns: fr.Trials, routeFailures: fr.Trials}
	}
	rng := rand.New(rand.NewSource(int64(mix(seed, 1, uint64(k), uint64(smp)))))
	sp := rp.tr.begin("campaign.sample")
	fs, err := campaign.SampleFailures(f, campaign.Scenario(fr.Scenario), k, rng)
	rp.tr.end(sp)
	if err != nil {
		return lost()
	}
	sp = rp.tr.begin("topology.failure_view")
	view, err := fs.View(f)
	rp.tr.end(sp)
	if err != nil {
		return lost()
	}
	sp = rp.tr.begin("routing.fault_router")
	r, err := campaign.BuildRouter(f, scheme, view, seed)
	rp.tr.end(sp)
	if err != nil {
		return lost()
	}
	alive := view.AliveHosts()
	if len(alive) < 2 {
		return res
	}
	prng := rand.New(rand.NewSource(int64(mix(seed, 2, uint64(k), uint64(smp)))))
	sp = rp.tr.begin("campaign.patterns")
	perms := make([]*permutation.Permutation, fr.Trials)
	for i := range perms {
		perms[i] = randomAlivePerm(f.Ports(), alive, prng)
	}
	rp.tr.end(sp)
	sp = rp.tr.begin("analysis.analyze_pattern")
	chk := analysis.NewChecker(f.Net)
	routed := 0
	for _, p := range perms {
		res.patterns++
		if err := chk.AnalyzePattern(r, p); err != nil {
			res.routeFailures++
			continue
		}
		routed++
		res.maxLinkLoad = max(res.maxLinkLoad, chk.MaxLoad())
		if chk.HasContention() {
			res.blocked++
		}
	}
	rp.tr.endN(sp, int64(len(perms)))
	rp.routed += int64(routed)
	rp.attempted += int64(len(perms))
	if fr.Sim && routed > 0 {
		srng := rand.New(rand.NewSource(int64(mix(seed, 3, uint64(k), uint64(smp)))))
		p := randomAlivePerm(f.Ports(), alive, srng)
		sp = rp.tr.begin("sim.run")
		simAccepted(f, r, p, q, int64(mix(seed, 4, uint64(k), uint64(smp))))
		rp.tr.end(sp)
	}
	return res
}

func randomAlivePerm(ports int, alive []int, rng *rand.Rand) *permutation.Permutation {
	p := permutation.New(ports)
	for i, j := range rng.Perm(len(alive)) {
		_ = p.Add(alive[i], alive[j]) // distinct sources and destinations by construction
	}
	return p
}

// simAccepted restates the campaign's open-loop run at offered load 1.0.
// Its accepted load only feeds the report's floats, which the replay does
// not compare, so only its cost matters here.
func simAccepted(f *topology.FoldedClos, r routing.Router, p *permutation.Permutation, q *api.Request, seed int64) {
	var pairs [][2]int
	for _, pr := range p.Pairs() {
		if pr.Src != pr.Dst {
			pairs = append(pairs, [2]int{pr.Src, pr.Dst})
		}
	}
	if len(pairs) == 0 {
		return
	}
	var pathsFor func(s, d int) ([]topology.Path, error)
	if pr, ok := r.(routing.PairRouter); ok {
		pathsFor = sim.PairPathsFunc(pr)
	} else {
		a, err := r.Route(p)
		if err != nil {
			return
		}
		pathsFor = sim.AssignmentPathsFunc(a)
	}
	_, _ = sim.OpenLoop(f.Net, pairs, pathsFor, sim.OpenLoopConfig{
		PacketFlits: q.Flits, Rate: 1.0, WarmupPackets: 2, MeasuredPackets: q.Pkts, Seed: seed,
	})
}

// batch restates the batch handler: per-item keys, in-batch grouping,
// store lookups, one job per distinct miss, store fill.
func (rp *replayer) batch(r *request) (string, error) {
	var b api.BatchRequest
	if err := rp.decode(r.Body, &b); err != nil {
		return "", err
	}
	keys := make([]string, len(b.Items))
	var order []int // first item of each distinct key
	seen := map[string]bool{}
	for i := range b.Items {
		keys[i] = rp.cacheKey(&b.Items[i], "verify")
		if !seen[keys[i]] {
			seen[keys[i]] = true
			order = append(order, i)
		}
	}
	bodies := map[string][]byte{}
	var misses []int
	for _, i := range order {
		if body, ok := rp.get(keys[i]); ok {
			bodies[keys[i]] = body
		} else {
			misses = append(misses, i)
		}
	}
	for _, i := range misses {
		body, err := rp.job(&b.Items[i], rp.verify)
		if err != nil {
			return "", err
		}
		bodies[keys[i]] = body
	}
	for _, i := range misses {
		rp.put(keys[i], bodies[keys[i]])
	}
	results := make([]string, len(b.Items))
	for i, k := range keys {
		results[i] = string(bodies[k])
	}
	return strings.Join(results, "\n"), nil
}

// sweep restates a coordinated /v1/verify/sweep: plan the shards as the
// coordinator does for two single-slot workers, run each shard as the
// worker's job, merge in shard order, and re-derive the witness the way
// a single node would report it.
func (rp *replayer) sweep(r *request) (string, error) {
	var q api.Request
	if err := rp.decode(r.Body, &q); err != nil {
		return "", err
	}
	q.Mode = "exhaustive-parallel"
	t, err := rp.buildTarget(&q)
	if err != nil {
		return "", err
	}
	const slots = 2
	s := rp.tr.begin("server.plan")
	var shards [][]int
	sym := q.SymReduce && analysis.SymApplicable(t.router, t.hosts, blockSize(&q, t)).Applied
	if sym {
		bs, err := permutation.NewBlockSymmetry(t.hosts, blockSize(&q, t))
		if err != nil {
			rp.tr.end(s)
			return "", err
		}
		for _, rg := range bs.Shards(slots) {
			shards = append(shards, []int{rg[0], rg[1]})
		}
	} else {
		shards = permutation.PrefixShards(t.hosts, slots)
	}
	rp.tr.end(s)

	ctx := context.Background()
	merged := &analysis.SweepResult{}
	firstBlocked := -1
	var firstWitness *permutation.Permutation
	for i, sh := range shards {
		js := rp.tr.begin("server.job")
		wt, err := rp.buildTarget(&q)
		if err != nil {
			rp.tr.end(js)
			return "", err
		}
		as := rp.tr.begin("analysis.shard")
		var res *analysis.SweepResult
		var stats *analysis.SymStats
		if sym {
			res, stats, err = analysis.SweepSymShardCtx(ctx, wt.router, wt.hosts, blockSize(&q, wt), sh[0], sh[1], nil)
		} else {
			res, err = analysis.SweepShardCtx(ctx, wt.router, wt.hosts, sh, nil)
		}
		rp.tr.endN(as, patternsRouted(res, stats))
		if err == nil && res.RouteErr != nil {
			err = res.RouteErr
		}
		if err == nil {
			_, err = rp.encode(&api.ShardReport{
				Network: wt.net.Name, Hosts: wt.hosts, Routing: wt.router.Name(),
				Tested: res.Tested, Blocked: res.Blocked, MaxLinkLoad: res.MaxLinkLoad,
			})
		}
		rp.tr.end(js)
		if err != nil {
			return "", err
		}
		merged.Tested += res.Tested
		merged.Blocked += res.Blocked
		merged.MaxLinkLoad = max(merged.MaxLinkLoad, res.MaxLinkLoad)
		if firstBlocked < 0 && res.Blocked > 0 {
			firstBlocked, firstWitness = i, res.FirstBlocked
		}
	}
	if firstBlocked >= 0 {
		s := rp.tr.begin("analysis.witness")
		switch {
		case sym:
			merged.FirstBlocked, err = analysis.SweepSymWitness(ctx, t.router, t.hosts, true)
		case len(shards[firstBlocked]) <= 1:
			merged.FirstBlocked = firstWitness
		default:
			var fb *analysis.SweepResult
			fb, err = analysis.SweepShardFirstBlockedCtx(ctx, t.router, t.hosts, shards[firstBlocked][:1], nil)
			if err == nil {
				merged.FirstBlocked = fb.FirstBlocked
			}
		}
		rp.tr.end(s)
		if err != nil {
			return "", err
		}
	}
	rep := &api.VerifyReport{
		Network: t.net.Name, Hosts: t.hosts, Routing: t.router.Name(),
		Method: "exhaustive-parallel", Exact: true,
	}
	fillSweep(rep, merged)
	body, err := rp.encode(rep)
	if err != nil {
		return "", err
	}
	return digest(r, body)
}

// design runs the planner with the replay's store as the probe memo and
// the replayed verify as its tier-2 verifier.
func (rp *replayer) design(r *request) (string, error) {
	var req api.DesignRequest
	if err := rp.decode(r.Body, &req); err != nil {
		return "", err
	}
	s := rp.tr.begin("design.plan")
	rep, err := design.Plan(context.Background(), &req.Catalog, design.Options{
		Verify: rp.designProbe, Memo: rp.store, NoPrune: req.NoPrune,
	})
	rp.tr.end(s)
	if err != nil {
		return "", err
	}
	rp.designs++
	rp.tier0 += int64(rep.Tier0)
	rp.candidates += int64(rep.Candidates)
	rp.memoHits += int64(rep.MemoHits)
	rp.freshRuns += int64(rep.FreshRuns)
	body, err := rp.encode(rep)
	if err != nil {
		return "", err
	}
	return digest(r, body)
}

func (rp *replayer) designProbe(_ context.Context, q *api.Request) (*api.VerifyReport, error) {
	s := rp.tr.begin("server.job")
	defer rp.tr.end(s)
	out, err := rp.verify(q)
	if errors.Is(err, errInfeasible) {
		return nil, fmt.Errorf("%w: %v", design.ErrInfeasible, err)
	}
	if err != nil {
		return nil, err
	}
	return out.(*api.VerifyReport), nil
}

// digest reduces an answer to what the untraced and traced runs must
// agree on: the exact body for verify, worstcase, sim and sweeps; the
// items' results for a batch (its cache labels follow the store, not the
// verdict); the integer curve points of a campaign; the candidate count
// and frontier of a design.
func digest(r *request, body []byte) (string, error) {
	switch r.Path {
	case "/v1/verify/batch":
		var rep api.BatchReport
		if err := json.Unmarshal(body, &rep); err == nil {
			res := make([]string, len(rep.Items))
			for i, it := range rep.Items {
				res[i] = string(it.Result)
			}
			return strings.Join(res, "\n"), nil
		}
	case "/v1/failures":
		var rep api.FailuresReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return "", fmt.Errorf("decode failures report: %w", err)
		}
		var b strings.Builder
		for _, c := range rep.Curves {
			for _, p := range c.Points {
				fmt.Fprintf(&b, "%s k=%d samples=%d router_failures=%d patterns=%d route_failures=%d blocked=%d max_load=%d\n",
					c.Scheme, p.Failures, p.Samples, p.RouterFailures, p.Patterns, p.RouteFailures, p.Blocked, p.MaxLinkLoad)
			}
		}
		return b.String(), nil
	case "/v1/design":
		var rep api.DesignReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return "", fmt.Errorf("decode design report: %w", err)
		}
		return fmt.Sprintf("%d|%s", rep.Candidates, frontierPrint(rep.Frontier)), nil
	}
	return string(bytes.TrimSpace(body)), nil
}
