package analysis

import (
	"context"

	"repro/internal/permutation"
	"repro/internal/routing"
)

// Named sweep entry points the nbperf benchmark harness calls by name and
// signature. nbperf pins them, so they stay until the benchmark moves to
// Sweep; every one but SweepSymWitness is a single Sweep spec. New code
// calls Sweep.

// SweepExhaustiveCtx is Sweep with the zero Spec. nbperf pins it.
func SweepExhaustiveCtx(ctx context.Context, r routing.Router, hosts int) (*SweepResult, error) {
	return noStats(Sweep(ctx, r, hosts, Spec{}))
}

// SweepExhaustiveFirstBlockedCtx is Sweep with FirstBlocked. nbperf pins
// it.
func SweepExhaustiveFirstBlockedCtx(ctx context.Context, r routing.Router, hosts int) (*SweepResult, error) {
	return noStats(Sweep(ctx, r, hosts, Spec{FirstBlocked: true}))
}

// SweepExhaustiveParallelCtx is Sweep with Parallel over workers. nbperf
// pins it.
func SweepExhaustiveParallelCtx(ctx context.Context, r routing.Router, hosts, workers int) (*SweepResult, error) {
	return noStats(Sweep(ctx, r, hosts, Spec{Parallel: true, Workers: workers}))
}

// SweepExhaustiveSymCtx is Sweep with SymBlock. nbperf pins it.
func SweepExhaustiveSymCtx(ctx context.Context, r routing.Router, hosts, blockSize int) (*SweepResult, *SymStats, error) {
	return Sweep(ctx, r, hosts, Spec{SymBlock: blockSize})
}

// SweepExhaustiveSymFirstBlockedCtx is Sweep with SymBlock and
// FirstBlocked. nbperf pins it.
func SweepExhaustiveSymFirstBlockedCtx(ctx context.Context, r routing.Router, hosts, blockSize int) (*SweepResult, *SymStats, error) {
	return Sweep(ctx, r, hosts, Spec{SymBlock: blockSize, FirstBlocked: true})
}

// SweepExhaustiveSymParallelProgressCtx is Sweep with SymBlock, Parallel
// over workers, and Progress. nbperf pins it.
func SweepExhaustiveSymParallelProgressCtx(ctx context.Context, r routing.Router, hosts, blockSize, workers int, fn ProgressFunc) (*SweepResult, *SymStats, error) {
	return Sweep(ctx, r, hosts, Spec{SymBlock: blockSize, Parallel: true, Workers: workers, Progress: fn})
}

// SweepShardCtx is Sweep over the prefix shard prefix with Progress; a nil
// prefix, copied to an empty one, is the whole space in shard order.
// nbperf pins it.
func SweepShardCtx(ctx context.Context, r routing.Router, hosts int, prefix []int, fn ProgressFunc) (*SweepResult, error) {
	return noStats(Sweep(ctx, r, hosts, Spec{Prefix: append([]int{}, prefix...), Progress: fn}))
}

// SweepShardFirstBlockedCtx is SweepShardCtx with FirstBlocked. nbperf pins
// it.
func SweepShardFirstBlockedCtx(ctx context.Context, r routing.Router, hosts int, prefix []int, fn ProgressFunc) (*SweepResult, error) {
	return noStats(Sweep(ctx, r, hosts, Spec{Prefix: append([]int{}, prefix...), FirstBlocked: true, Progress: fn}))
}

// SweepSymShardCtx is Sweep over the orbit range [lo, hi) of SymBlock
// blockSize with Progress. nbperf pins it.
func SweepSymShardCtx(ctx context.Context, r routing.Router, hosts, blockSize, lo, hi int, fn ProgressFunc) (*SweepResult, *SymStats, error) {
	return Sweep(ctx, r, hosts, Spec{SymBlock: blockSize, SymShard: []int{lo, hi}, Progress: fn})
}

// SweepSymWitness re-derives the FirstBlocked witness an unreduced sweep
// reports — in the Parallel merge order when parallelOrder is set, else in
// sequential Heap order — for a coordinator that merged SymShard counters.
// Call it only when the sweep is known blocked. nbperf pins it.
func SweepSymWitness(ctx context.Context, r routing.Router, hosts int, parallelOrder bool) (*permutation.Permutation, error) {
	return newEngine(r, hosts, allPatterns).witness(ctx, parallelOrder)
}

// noStats drops Sweep's SymStats for the entry points without a symmetry
// reduction, where it is always nil.
func noStats(res *SweepResult, _ *SymStats, err error) (*SweepResult, error) { return res, err }
