package analysis

import (
	"context"

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
