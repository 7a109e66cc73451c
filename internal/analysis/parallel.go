package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/routing"
)

// SweepExhaustiveParallel is SweepExhaustive over `workers` goroutines,
// sharding the n! permutations into n batches by the first endpoint's
// destination. workers ≤ 0 selects GOMAXPROCS. Every router in this
// repository is safe for concurrent Route calls, so each worker owns one
// scorer: a DeltaChecker over one shared read-only route table, each shard
// enumerated by Heap swaps from its lexicographically first pattern, or —
// for pattern-dependent routers — a scratch Checker over the shard in
// lexicographic order. Counts, MaxLinkLoad and a routing error (the
// canonical sequential-order first one) equal the sequential sweep's.
// FirstBlocked does not: it is the first blocked pattern of the lowest
// blocked level-1 shard in that shard's order (what
// SweepShardFirstBlockedCtx over shards 0..n−1 finds first), where the
// sequential sweep reports the first blocked pattern of the whole Heap
// enumeration.
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
	return newEngine(r, hosts).parallel(ctx, workers, fn)
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
