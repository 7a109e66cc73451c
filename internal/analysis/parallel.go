package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/permutation"
	"repro/internal/routing"
)

// The parallel verification engine. Every router in this repository is
// safe for concurrent Route calls — routing state is per-call — so sweeps
// parallelize over patterns with a plain worker pool; each worker owns a
// flat-array Checker, so the hot loop allocates nothing per pattern.
// Results are merged deterministically: counts are exact, and FirstBlocked
// is the blocked pattern from the lowest-numbered shard (sequential
// order), so parallel and sequential sweeps agree on everything except
// wall-clock time. On a routing failure the shards' partial counters are
// racy (other shards stop mid-enumeration), so the merged result zeroes
// the statistical fields and re-derives the canonical sequential-order
// first routing error — parallel and sequential sweeps then agree on the
// reported error as well.

// SweepExhaustiveParallel is SweepExhaustive over `workers` goroutines,
// sharding the n! permutations into n batches by the first endpoint's
// destination. workers ≤ 0 selects GOMAXPROCS. Routers with cacheable
// per-pair link sets run the delta engine per shard: one CSR RouteTable is
// built up front and shared read-only by all workers, each worker owns a
// DeltaChecker, and each shard is enumerated by EnumerateFullPrefixSwaps —
// seeded from EnumerateFullPrefix's first permutation, then advanced one
// Heap swap at a time. Pattern-dependent routers use the per-pattern
// Checker path unchanged.
func SweepExhaustiveParallel(r routing.Router, hosts, workers int) *SweepResult {
	res, _ := sweepExhaustiveParallel(context.Background(), r, hosts, workers, nil)
	return res
}

// SweepExhaustiveParallelCtx is SweepExhaustiveParallel with cooperative
// cancellation: every worker polls ctx on a stride outside its per-pattern
// accounting, the shard feeder stops once ctx fires, and all workers are
// joined before the call returns — a cancelled sweep leaks no goroutines.
// On cancellation the merged partial counters depend on where each worker
// observed the signal, so treat them as progress indicators only; the
// returned error is ctx.Err(). A run completing under a never-cancelled
// context is identical to SweepExhaustiveParallel's.
func SweepExhaustiveParallelCtx(ctx context.Context, r routing.Router, hosts, workers int) (*SweepResult, error) {
	return sweepExhaustiveParallel(ctx, r, hosts, workers, nil)
}

func sweepExhaustiveParallel(ctx context.Context, r routing.Router, hosts, workers int, fn ProgressFunc) (*SweepResult, error) {
	if hosts <= 1 {
		return sweepExhaustiveDelta(ctx, r, hosts, false, fn)
	}
	if err := ctx.Err(); err != nil {
		return &SweepResult{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if table, err := routing.BuildRouteTable(r, hosts); err == nil {
		return sweepParallelDelta(ctx, table, hosts, workers, fn)
	}
	return sweepParallelOracle(ctx, r, hosts, workers, fn)
}

// sweepParallelDelta fans the n delta-swept shards over the worker pool.
// The table build already routed every pair successfully, so shards cannot
// hit routing errors; the only abort source is ctx.
func sweepParallelDelta(ctx context.Context, table *routing.RouteTable, hosts, workers int, fn ProgressFunc) (*SweepResult, error) {
	shards := make(chan int)
	results := make([]SweepResult, hosts)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewDeltaChecker(table)
			cancel := newSweepCanceller(ctx)
			prog := progressMeter{fn: fn}
			tested, blocked := 0, 0 // worker-cumulative, for progress deltas
			cancelled := false
			for shard := range shards {
				if cancelled {
					continue // drain the channel so the feeder never blocks
				}
				sr := &results[shard]
				permutation.EnumerateFullPrefixSwaps(hosts, shard, func(p *permutation.Permutation, i, j int) bool {
					if cancel.cancelled() {
						cancelled = true
						return false
					}
					if i < 0 {
						d.Reset(p)
					} else {
						d.Swap(i, j)
					}
					sr.Tested++
					tested++
					if d.MaxLoad() > sr.MaxLinkLoad {
						sr.MaxLinkLoad = d.MaxLoad()
					}
					if d.HasContention() {
						sr.Blocked++
						blocked++
						if sr.FirstBlocked == nil {
							sr.FirstBlocked = p.Clone()
						}
					}
					prog.step(tested, blocked)
					return true
				})
			}
			prog.flush(tested, blocked)
		}()
	}
feed:
	for shard := 0; shard < hosts; shard++ {
		select {
		case shards <- shard:
		case <-done:
			break feed
		}
	}
	close(shards)
	wg.Wait()
	return mergeShardResults(results), ctx.Err()
}

// sweepParallelOracle is the per-pattern Checker engine for routers whose
// link sets cannot be cached (adaptive, global) or whose table build
// failed.
func sweepParallelOracle(ctx context.Context, r routing.Router, hosts, workers int, fn ProgressFunc) (*SweepResult, error) {
	shards := make(chan int)
	results := make([]SweepResult, hosts)
	done := ctx.Done()
	var wg sync.WaitGroup
	var abort atomic.Bool

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewChecker(nil)
			cancel := newSweepCanceller(ctx)
			prog := progressMeter{fn: fn}
			tested, blocked := 0, 0 // worker-cumulative, for progress deltas
			cancelled := false
			for shard := range shards {
				if cancelled {
					continue // drain the channel so the feeder never blocks
				}
				sr := &results[shard]
				permutation.EnumerateFullPrefix(hosts, shard, func(p *permutation.Permutation) bool {
					if cancel.cancelled() {
						cancelled = true
						return false
					}
					if abort.Load() {
						return false
					}
					if err := c.AnalyzePattern(r, p); err != nil {
						sr.RouteErr = fmt.Errorf("analysis: pattern %s: %w", p, err)
						abort.Store(true)
						return false
					}
					sr.Tested++
					tested++
					if c.MaxLoad() > sr.MaxLinkLoad {
						sr.MaxLinkLoad = c.MaxLoad()
					}
					if c.HasContention() {
						sr.Blocked++
						blocked++
						if sr.FirstBlocked == nil {
							sr.FirstBlocked = p.Clone()
						}
					}
					prog.step(tested, blocked)
					return true
				})
			}
			prog.flush(tested, blocked)
		}()
	}
feed:
	for shard := 0; shard < hosts; shard++ {
		select {
		case shards <- shard:
		case <-done:
			break feed
		}
	}
	close(shards)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return mergeShardResults(results), err
	}
	for i := range results {
		if results[i].RouteErr != nil {
			// Error path: which patterns the other shards managed to test
			// before observing the abort flag is a race, so the partial
			// counters are meaningless and, worse, nondeterministic.
			// Discard them and re-derive the sequential-order first
			// routing failure, which is deterministic because every
			// router's outcome depends only on the pattern.
			return SweepFirstRouteErr(r, hosts), nil
		}
	}
	return mergeShardResults(results), nil
}

// mergeShardResults folds per-shard sweep results deterministically:
// counts are exact sums, and FirstBlocked is taken from the
// lowest-numbered blocked shard (in that shard's enumeration order).
func mergeShardResults(results []SweepResult) *SweepResult {
	merged := &SweepResult{}
	for i := range results {
		sr := &results[i]
		merged.Tested += sr.Tested
		merged.Blocked += sr.Blocked
		if sr.MaxLinkLoad > merged.MaxLinkLoad {
			merged.MaxLinkLoad = sr.MaxLinkLoad
		}
		if merged.FirstBlocked == nil && sr.FirstBlocked != nil {
			merged.FirstBlocked = sr.FirstBlocked
		}
	}
	return merged
}

// SweepFirstRouteErr scans the full enumeration in sequential order and
// returns a SweepResult carrying only the canonical first routing error,
// with all statistical fields zeroed. Call it only after a sweep has
// already observed at least one routing failure, so the scan is
// guaranteed to terminate at the first failing pattern. Exported for the
// distributed coordinator, which must re-derive the same canonical error
// a single-process parallel sweep would report when any shard returns a
// routing failure.
func SweepFirstRouteErr(r routing.Router, hosts int) *SweepResult {
	res := &SweepResult{}
	c := NewChecker(nil)
	permutation.EnumerateFull(hosts, func(p *permutation.Permutation) bool {
		if err := c.AnalyzePattern(r, p); err != nil {
			res.RouteErr = fmt.Errorf("analysis: pattern %s: %w", p, err)
			return false
		}
		return true
	})
	return res
}

// CheckLemma1AllPairsParallel is CheckLemma1AllPairs with the all-pairs
// routing sharded over `workers` goroutines by contiguous source ranges.
// Each worker folds its range into its own kernel state and the states are
// merged afterwards; the merge is order-independent, so the verdict and
// violation equal the sequential ones, and a routing error is the one from
// the lowest failing range — the sequential-order first. workers ≤ 0
// selects GOMAXPROCS.
func CheckLemma1AllPairsParallel(r routing.PairRouter, hosts, workers int) (*Lemma1Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hosts {
		workers = hosts
	}
	if workers <= 1 {
		return CheckLemma1AllPairs(r, hosts)
	}
	kernels := make([]*lemma1Kernel, workers)
	errs := make([]error, workers)
	chunk := (hosts + workers - 1) / workers
	var wg sync.WaitGroup
	for w := range kernels {
		kernels[w] = newLemma1Kernel(r)
		lo := min(w*chunk, hosts)
		hi := min(lo+chunk, hosts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = kernels[w].fold(lo, hi, hosts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, k := range kernels[1:] {
		kernels[0].merge(k)
	}
	return kernels[0].result(hosts)
}

// BlockingProbabilityParallel is BlockingProbability over a worker pool:
// `trials` random permutations are split across workers with per-worker
// derived seeds (seed+worker). The estimate is statistically equivalent to
// the sequential version but not bit-identical (different RNG streams).
func BlockingProbabilityParallel(r routing.Router, hosts, trials, workers int, seed int64) (blockFrac, meanMaxLoad float64, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers <= 1 {
		return BlockingProbability(r, hosts, trials, seed)
	}
	type out struct {
		blocked, loadSum, trials int
		err                      error
	}
	outs := make([]out, workers)
	var wg sync.WaitGroup
	per := trials / workers
	extra := trials % workers
	for w := 0; w < workers; w++ {
		quota := per
		if w < extra {
			quota++
		}
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			frac, load, err := BlockingProbability(r, hosts, quota, seed+int64(w)*7919)
			if err != nil {
				outs[w].err = err
				return
			}
			outs[w].trials = quota
			outs[w].blocked = int(frac*float64(quota) + 0.5)
			outs[w].loadSum = int(load*float64(quota) + 0.5)
		}(w, quota)
	}
	wg.Wait()
	blocked, loadSum, total := 0, 0, 0
	for _, o := range outs {
		if o.err != nil {
			return 0, 0, o.err
		}
		blocked += o.blocked
		loadSum += o.loadSum
		total += o.trials
	}
	if total == 0 {
		return 0, 0, nil
	}
	return float64(blocked) / float64(total), float64(loadSum) / float64(total), nil
}

// MaxRootPairsModesParallel is MaxRootPairsModes parallelized over the
// first switch's uplink mode (r branches). Exact and identical to the
// sequential search.
func MaxRootPairsModesParallel(n, r, workers int) int {
	if n < 1 || r < 1 {
		panic(fmt.Sprintf("analysis: invalid Lemma-2 instance n=%d r=%d", n, r))
	}
	if r == 1 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Branches: first switch's mode is modeShared or DST(t), t ∈ [1, r)
	// (t = 0 is the switch itself, excluded).
	branches := make(chan int)
	best := make([]int, r+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			up := make([]int, r)
			for b := range branches {
				if b == 0 {
					up[0] = modeShared
				} else {
					up[0] = b // DST(b)
				}
				best[b] = lemma2SearchFrom(n, r, up, 1)
			}
		}()
	}
	for b := 0; b < r; b++ {
		branches <- b
	}
	close(branches)
	wg.Wait()
	max := 0
	for _, v := range best {
		if v > max {
			max = v
		}
	}
	return max
}

// lemma2SearchFrom explores uplink modes for switches v.. and returns the
// best total, with up[0..v) already fixed.
func lemma2SearchFrom(n, r int, up []int, v int) int {
	if v == r {
		total := 0
		for w := 0; w < r; w++ {
			bestW := 0
			for dw := -1; dw < r; dw++ {
				if dw == w {
					continue
				}
				s := 0
				for x := 0; x < r; x++ {
					if x != w {
						s += lemma2f(n, x, w, up[x], dw)
					}
				}
				if s > bestW {
					bestW = s
				}
			}
			total += bestW
		}
		return total
	}
	best := 0
	try := func() {
		if t := lemma2SearchFrom(n, r, up, v+1); t > best {
			best = t
		}
	}
	up[v] = modeShared
	try()
	for t := 0; t < r; t++ {
		if t == v {
			continue
		}
		up[v] = t
		try()
	}
	return best
}
