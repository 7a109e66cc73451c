package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Multi-run drivers. Every router in this repository is safe for
// concurrent Route/PathFor calls (routing state is per-call) and each
// simulation run owns its event core, so trials and sweep points spread
// over one ordered worker pool (forEach). Randomness is drawn up front
// (the trial permutations) or re-seeded per run (the injection
// processes), and results land by index, so every output — including the
// reported error, always the lowest-index one — is the same for every
// worker count.

// RunTrials routes and simulates `trials` seeded random full permutations
// (closed loop) on up to `workers` goroutines and returns the per-trial
// results in trial order — the many-pattern counterpart of
// RunPermutation. workers ≤ 0 selects GOMAXPROCS; 1 runs inline. A
// non-nil cfg.Collector turns metrics on: every trial runs with a pooled
// collector and its Result carries a detached Metrics snapshot (combine
// them with Metrics.Merge).
func RunTrials(net *topology.Network, r routing.Router, hosts, trials, workers int, seed int64, cfg Config) ([]*Result, error) {
	perms, err := drawTrials(hosts, trials, seed)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, trials)
	err = forEach(trials, workers, func(i int) error {
		var res *Result
		m, err := pooledRun(cfg.Collector != nil, func(col Collector) (*Metrics, error) {
			tcfg := cfg
			tcfg.Collector = col
			var err error
			if _, res, err = RunPermutation(net, r, perms[i], tcfg); err != nil {
				return nil, err
			}
			return res.Metrics, nil
		})
		if err != nil {
			return err
		}
		res.Metrics = m
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// CompareToCrossbar simulates `trials` seeded random permutations under
// the router on up to `workers` goroutines (≤ 0 selects GOMAXPROCS) and
// reports slowdown statistics against the crossbar reference — the
// experiment behind the paper's motivation ([5], [7]) and its claim that
// nonblocking folded-Clos networks match crossbars. Slowdowns accumulate
// in trial order, so every float of the summary is the same for every
// worker count.
func CompareToCrossbar(net *topology.Network, r routing.Router, hosts, trials, workers int, seed int64, cfg Config) (*ThroughputSummary, error) {
	perms, err := drawTrials(hosts, trials, seed)
	if err != nil {
		return nil, err
	}
	// The summary carries no metrics; drop any collector so the network and
	// crossbar-reference runs never share or clobber collector state.
	cfg.Collector = nil
	slowdowns := make([]float64, trials)
	err = forEach(trials, workers, func(i int) error {
		_, res, err := RunPermutation(net, r, perms[i], cfg)
		if err != nil {
			return err
		}
		ref, err := CrossbarReference(hosts, perms[i], cfg)
		if err != nil {
			return err
		}
		slowdowns[i] = res.Slowdown(ref)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sum := &ThroughputSummary{Patterns: trials}
	for _, s := range slowdowns {
		sum.MeanSlowdown += s
		sum.MeanRelThroughput += 1 / s
		if s > sum.MaxSlowdown {
			sum.MaxSlowdown = s
		}
	}
	if trials > 0 {
		sum.MeanSlowdown /= float64(trials)
		sum.MeanRelThroughput /= float64(trials)
		sort.Float64s(slowdowns)
		sum.MedianSlowdown = slowdowns[trials/2]
	}
	return sum, nil
}

// LoadSweepParallel runs OpenLoop at each offered load for a fixed
// permutation and router, one goroutine per load, producing the classic
// latency/throughput curve in rate order. pathsFor adapts any router (see
// PairPathsFunc and AssignmentPathsFunc) and must be safe
// for concurrent calls; every adapter in this package is. Each point
// derives all randomness from its own seeded generator, so the curve does
// not depend on scheduling. A non-nil base.Collector turns metrics on:
// each point gets a pooled collector and keeps a detached snapshot.
func LoadSweepParallel(net *topology.Network, pairs [][2]int, pathsFor func(s, d int) ([]topology.Path, error), rates []float64, base OpenLoopConfig) ([]LoadSweepPoint, error) {
	points := make([]LoadSweepPoint, len(rates))
	err := forEach(len(rates), len(rates), func(i int) error {
		var res *OpenLoopResult
		m, err := pooledRun(base.Collector != nil, func(col Collector) (*Metrics, error) {
			cfg := base
			cfg.Rate, cfg.Collector = rates[i], col
			var err error
			if res, err = OpenLoop(net, pairs, pathsFor, cfg); err != nil {
				return nil, err
			}
			return res.Metrics, nil
		})
		if err != nil {
			return err
		}
		points[i] = LoadSweepPoint{
			OfferedLoad:  rates[i],
			AcceptedLoad: res.AcceptedLoad,
			MeanLatency:  res.MeanLatency,
			P99Latency:   res.P99Latency,
			Saturated:    res.Saturated,
			Metrics:      m,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// drawTrials draws the trial permutations of RunTrials and
// CompareToCrossbar from one seeded stream, in trial order.
func drawTrials(hosts, trials int, seed int64) ([]*permutation.Permutation, error) {
	if trials < 0 {
		return nil, fmt.Errorf("sim: trials must be >= 0 (got %d)", trials)
	}
	rng := rand.New(rand.NewSource(seed))
	perms := make([]*permutation.Permutation, trials)
	for i := range perms {
		perms[i] = permutation.Random(rng, hosts)
	}
	return perms, nil
}

// forEach runs job(0), …, job(n−1) on up to `workers` goroutines and
// returns the lowest-index error. workers ≤ 0 selects GOMAXPROCS, and the
// count is clamped to n; with one worker the jobs run inline, in order,
// stopping at the first error.
func forEach(n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pooledRun runs one simulation of a multi-run driver. With metrics off,
// run gets a nil collector. With metrics on, it gets a pooled
// MetricsCollector in place of the caller's, so concurrent runs never
// share one; the Metrics it returns alias that collector's live memory and
// come back as a detached clone before the collector returns to the pool.
func pooledRun(metrics bool, run func(col Collector) (*Metrics, error)) (*Metrics, error) {
	if !metrics {
		return run(nil)
	}
	col := acquireCollector()
	defer releaseCollector(col)
	m, err := run(col)
	if m != nil {
		m = m.Clone()
	}
	return m, err
}
