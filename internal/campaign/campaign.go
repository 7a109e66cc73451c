// Package campaign is the fault-injection campaign engine: it sweeps a
// failure count k from 0 to a maximum, draws sampled failure sets of a
// scenario at each k, rebuilds every fault-aware routing scheme against
// each set, and fans the analysis and simulation engines over the sample —
// producing one "nonblocking margin vs failures" degradation curve per
// scheme (api.FailuresReport).
//
// The unit of work is one sampled failure set (k, sample): its failures,
// view and surviving hosts are drawn once, every scheme's router is built
// against it, and each trial pattern is drawn once and scored against
// every router. A worker scores on reusable buffers — one checker, one
// reseeded rng, one pattern — and no trial builds an Assignment, so a
// trial allocates nothing for the pairwise schemes and only the plan's
// slices for the adaptive one.
//
// Determinism: the campaign is a pure function of its Config. Every
// random draw (failure sets, test patterns, simulation injection) is
// seeded by a SplitMix64 hash of (Seed, stream, k, sample), so each
// failure set is independent of every other and of the worker that
// scores it; failure sets and patterns depend only on (k, sample), never
// on the scheme, so all schemes face identical damage and identical
// traffic. Cells are merged in a fixed (scheme, k, sample) order, making
// parallel runs byte-identical to sequential ones
// (TestRunParallelMatchesSequential).
package campaign

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config parameterizes one campaign over ftree(n+m, r).
type Config struct {
	// N, M, R define the fabric. M = 0 defaults to n² + MaxFailures so
	// the spared scheme has exactly enough spares to survive to the edge
	// of the sweep.
	N, M, R int
	// Scenario selects the failure-set sampler.
	Scenario Scenario
	// MaxFailures is the largest failure count k swept (default 4,
	// clamped nowhere — validation rejects counts beyond the scenario's
	// domain).
	MaxFailures int
	// Samples is the number of failure sets drawn per k ≥ 1 (default 3);
	// k = 0 always runs exactly one (the pristine fabric).
	Samples int
	// Trials is the number of random permutations over the surviving
	// hosts measured per failure set per scheme (default 50).
	Trials int
	// Schemes lists campaign scheme names (see Schemes); empty selects
	// DefaultSchemes.
	Schemes []string
	// Seed drives every random draw.
	Seed int64
	// Workers > 1 scores failure sets on a worker pool; the report is
	// byte-identical to the sequential run regardless.
	Workers int
	// Sim additionally measures open-loop accepted load at offered 1.0
	// once per failure set.
	Sim bool
	// SimFlits and SimPackets parameterize that simulation (defaults 4
	// and 8, the nbsim defaults).
	SimFlits, SimPackets int
}

// Campaign scheme names.
const (
	SchemeAvoiding = "adaptive-avoiding"
	SchemeSpared   = "spared-deterministic"
	SchemeNaive    = "naive-remap"
	SchemeLocal    = "local-reroute"
)

// DefaultSchemes returns the full comparison: the adaptive avoiding
// router, the spared Theorem-3 scheme, the broken naive remap (negative
// control), and Bankhamer-style randomized local rerouting.
func DefaultSchemes() []string {
	return []string{SchemeAvoiding, SchemeSpared, SchemeNaive, SchemeLocal}
}

// KnownScheme reports whether name is a campaign scheme.
func KnownScheme(name string) bool {
	switch name {
	case SchemeAvoiding, SchemeSpared, SchemeNaive, SchemeLocal:
		return true
	}
	return false
}

// BuildRouter instantiates a campaign scheme against a failure view. An
// error means the scheme cannot serve this failure set at all (e.g.
// spares exhausted) — the campaign records it as a router failure.
func BuildRouter(f *topology.FoldedClos, scheme string, view *topology.FailureView, seed int64) (routing.Router, error) {
	switch scheme {
	case SchemeAvoiding:
		return routing.NewAvoidingAdaptive(f, view)
	case SchemeSpared:
		return routing.NewSparedDeterministicView(f, view)
	case SchemeNaive:
		return routing.NewNaiveRemapView(f, view)
	case SchemeLocal:
		return routing.NewLocalReroute(f, view, seed), nil
	}
	return nil, fmt.Errorf("campaign: unknown scheme %q", scheme)
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 4
	}
	if cfg.M == 0 {
		cfg.M = cfg.N*cfg.N + cfg.MaxFailures
	}
	if cfg.Samples == 0 {
		cfg.Samples = 3
	}
	if cfg.Trials == 0 {
		cfg.Trials = 50
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = DefaultSchemes()
	}
	if cfg.SimFlits == 0 {
		cfg.SimFlits = 4
	}
	if cfg.SimPackets == 0 {
		cfg.SimPackets = 8
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.N < 2 || cfg.M < 1 || cfg.R < 1 {
		return fmt.Errorf("campaign: need n >= 2, m >= 1, r >= 1 (got n=%d m=%d r=%d)", cfg.N, cfg.M, cfg.R)
	}
	if cfg.MaxFailures < 0 || cfg.Samples < 1 || cfg.Trials < 1 {
		return fmt.Errorf("campaign: need max_failures >= 0, samples >= 1, trials >= 1")
	}
	dom, err := ScenarioDomain(cfg.Scenario, cfg.N, cfg.M, cfg.R)
	if err != nil {
		return err
	}
	if cfg.MaxFailures > dom {
		return fmt.Errorf("campaign: max_failures %d exceeds the %d failable %s elements of ftree(%d+%d,%d)",
			cfg.MaxFailures, dom, cfg.Scenario, cfg.N, cfg.M, cfg.R)
	}
	for _, s := range cfg.Schemes {
		if !KnownScheme(s) {
			return fmt.Errorf("campaign: unknown scheme %q", s)
		}
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer (same constants as
// routing/rng.go).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix derives an independent RNG seed from the campaign seed and a stream
// tag plus cell coordinates.
func mix(seed int64, parts ...uint64) int64 {
	h := uint64(seed)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return int64(h)
}

// cellResult is the raw measurement of one (scheme, k, sample) cell.
type cellResult struct {
	routerFailed  bool
	patterns      int
	routeFailures int
	blocked       int
	routed        int
	maxLinkLoad   int
	sumMaxLoad    int64
	simRan        bool
	acceptedLoad  float64
}

// setID names one sampled failure set, the campaign's unit of work.
type setID struct{ k, sample int }

// Run executes the campaign. With cfg.Workers > 1 the failure sets are
// scored on a worker pool; the report is byte-identical either way.
func Run(ctx context.Context, cfg Config) (*api.FailuresReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := topology.NewFoldedClos(cfg.N, cfg.M, cfg.R)
	var sets []setID
	for k := 0; k <= cfg.MaxFailures; k++ {
		for s := 0; s < cfg.samplesFor(k); s++ {
			sets = append(sets, setID{k, s})
		}
	}
	// Failure set i owns cells[i*nSchemes : (i+1)*nSchemes], one per scheme.
	nSchemes := len(cfg.Schemes)
	cells := make([]cellResult, len(sets)*nSchemes)
	workers := min(max(cfg.Workers, 1), len(sets))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := newWorker(f, nSchemes)
			for i := range next {
				wk.runSet(f, cfg, sets[i], cells[i*nSchemes:(i+1)*nSchemes])
			}
		}()
	}
feed:
	for i := range sets {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reduce(f, cfg, cells), nil
}

// samplesFor is the number of failure sets drawn at k: the pristine
// fabric once, every other k cfg.Samples times.
func (cfg Config) samplesFor(k int) int {
	if k == 0 {
		return 1
	}
	return cfg.Samples
}

// worker is one goroutine's reusable scoring state: a checker, one rng
// reseeded from mix(...) before every draw (Seed resets it to exactly the
// state rand.NewSource builds), and the pattern and index buffers trials
// are drawn into. Every draw reseeds and every analysis resets the
// checker, so results never depend on which worker scored a set.
type worker struct {
	chk *analysis.Checker
	rng *rand.Rand
	p   *permutation.Permutation
	sc  permutation.PatternScratch
	// routers[si] is scheme si's router on the current failure set, nil
	// when it failed to build.
	routers []routing.Router
}

func newWorker(f *topology.FoldedClos, schemes int) *worker {
	return &worker{
		chk:     analysis.NewChecker(f.Net),
		rng:     rand.New(rand.NewSource(0)),
		p:       permutation.New(f.Ports()),
		routers: make([]routing.Router, schemes),
	}
}

// runSet measures every scheme against one sampled failure set, writing
// scheme si's cell to out[si]. The failure set, the surviving hosts and
// each trial pattern are drawn once, seeded by (k, sample) only, and
// scored against every scheme's router, so all schemes face identical
// damage and identical traffic.
func (w *worker) runSet(f *topology.FoldedClos, cfg Config, id setID, out []cellResult) {
	// A scheme that cannot instantiate loses every pattern.
	lost := cellResult{routerFailed: true, patterns: cfg.Trials, routeFailures: cfg.Trials}
	w.rng.Seed(mix(cfg.Seed, 1, uint64(id.k), uint64(id.sample)))
	fs, err := SampleFailures(f, cfg.Scenario, id.k, w.rng)
	var view *topology.FailureView
	if err == nil {
		view, err = fs.View(f)
	}
	if err != nil {
		for si := range out {
			out[si] = lost
		}
		return
	}
	for si, scheme := range cfg.Schemes {
		r, err := BuildRouter(f, scheme, view, cfg.Seed)
		if err != nil {
			r, out[si] = nil, lost
		}
		w.routers[si] = r
	}
	w.trials(f, cfg, id, view.AliveHosts(), out)
}

// trials scores cfg.Trials patterns over the surviving hosts against every
// built router, then optionally simulates one more pattern per scheme.
func (w *worker) trials(f *topology.FoldedClos, cfg Config, id setID, alive []int, out []cellResult) {
	if len(alive) < 2 {
		return // nothing left to communicate
	}
	w.rng.Seed(mix(cfg.Seed, 2, uint64(id.k), uint64(id.sample)))
	for trial := 0; trial < cfg.Trials; trial++ {
		permutation.RandomAmongInto(w.rng, w.p, alive, &w.sc)
		for si, r := range w.routers {
			if r != nil {
				w.score(r, &out[si])
			}
		}
	}
	if !cfg.Sim {
		return
	}
	drawn := false
	for si, r := range w.routers {
		if r == nil || out[si].routed == 0 {
			continue
		}
		if !drawn {
			w.rng.Seed(mix(cfg.Seed, 3, uint64(id.k), uint64(id.sample)))
			permutation.RandomAmongInto(w.rng, w.p, alive, &w.sc)
			drawn = true
		}
		if acc, ok := simAccepted(f, r, w.p, cfg, mix(cfg.Seed, 4, uint64(id.k), uint64(id.sample))); ok {
			out[si].simRan = true
			out[si].acceptedLoad = acc
		}
	}
}

// score analyzes the current pattern under r and folds the outcome into
// res. Once the checker's scratch has grown it allocates nothing for the
// pairwise schemes and only the plan's slices for the adaptive one.
func (w *worker) score(r routing.Router, res *cellResult) {
	res.patterns++
	if err := w.chk.AnalyzePattern(r, w.p); err != nil {
		res.routeFailures++
		return
	}
	res.routed++
	ml := w.chk.MaxLoad()
	res.sumMaxLoad += int64(ml)
	if ml > res.maxLinkLoad {
		res.maxLinkLoad = ml
	}
	if w.chk.HasContention() {
		res.blocked++
	}
}

// simAccepted runs one open-loop simulation at offered load 1.0 over a
// random surviving-host permutation and reports the accepted load.
func simAccepted(f *topology.FoldedClos, r routing.Router, p *permutation.Permutation, cfg Config, seed int64) (float64, bool) {
	var pairs [][2]int
	for _, pr := range p.Pairs() {
		if pr.Src != pr.Dst {
			pairs = append(pairs, [2]int{pr.Src, pr.Dst})
		}
	}
	if len(pairs) == 0 {
		return 0, false
	}
	var pathsFor func(s, d int) ([]topology.Path, error)
	if pr, ok := r.(routing.PairRouter); ok {
		pathsFor = sim.PairPathsFunc(pr)
	} else {
		// Pattern-dependent router (the avoiding adaptive): route the
		// whole pattern once and serve paths from the assignment.
		a, err := r.Route(p)
		if err != nil {
			return 0, false
		}
		pathsFor = sim.AssignmentPathsFunc(a)
	}
	res, err := sim.OpenLoop(f.Net, pairs, pathsFor, sim.OpenLoopConfig{
		PacketFlits:     cfg.SimFlits,
		Rate:            1.0,
		WarmupPackets:   2,
		MeasuredPackets: cfg.SimPackets,
		Seed:            seed,
	})
	if err != nil {
		return 0, false
	}
	return res.AcceptedLoad, true
}

// reduce folds the cells, in fixed order, into the per-scheme curves.
// All floating-point aggregates are computed here from exact integer (or
// order-fixed float) sums, which is what makes parallel output
// byte-identical to sequential.
func reduce(f *topology.FoldedClos, cfg Config, cells []cellResult) *api.FailuresReport {
	rep := &api.FailuresReport{
		Network:     f.Net.Name,
		Hosts:       f.Ports(),
		Scenario:    string(cfg.Scenario),
		MaxFailures: cfg.MaxFailures,
		Samples:     cfg.Samples,
		Trials:      cfg.Trials,
		Seed:        cfg.Seed,
		Sim:         cfg.Sim,
	}
	nSchemes := len(cfg.Schemes)
	for si, scheme := range cfg.Schemes {
		curve := api.FailureCurve{Scheme: scheme}
		set := 0
		for k := 0; k <= cfg.MaxFailures; k++ {
			pt := api.FailurePoint{Failures: k}
			var sumMax int64
			var sumAcc float64
			minAcc := math.Inf(1)
			routed, simCount := 0, 0
			for s := 0; s < cfg.samplesFor(k); s++ {
				c := cells[set*nSchemes+si]
				set++
				pt.Samples++
				if c.routerFailed {
					pt.RouterFailures++
				}
				pt.Patterns += c.patterns
				pt.RouteFailures += c.routeFailures
				pt.Blocked += c.blocked
				routed += c.routed
				sumMax += c.sumMaxLoad
				if c.maxLinkLoad > pt.MaxLinkLoad {
					pt.MaxLinkLoad = c.maxLinkLoad
				}
				if c.simRan {
					simCount++
					sumAcc += c.acceptedLoad
					if c.acceptedLoad < minAcc {
						minAcc = c.acceptedLoad
					}
				}
			}
			if pt.Patterns > 0 {
				pt.DegradedFrac = float64(pt.Blocked+pt.RouteFailures) / float64(pt.Patterns)
			}
			if routed > 0 {
				pt.MeanMaxLoad = float64(sumMax) / float64(routed)
			}
			if simCount > 0 {
				pt.AcceptedLoad = sumAcc / float64(simCount)
				pt.MinAcceptedLoad = minAcc
			}
			curve.Points = append(curve.Points, pt)
		}
		rep.Curves = append(rep.Curves, curve)
	}
	return rep
}
