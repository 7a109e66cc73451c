package analysis

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/routing"
)

// Shard sweeps: the worker half of the distributed exhaustive sweep. A
// coordinator plans a prefix partition (permutation.PrefixShards), posts
// one shard per request to worker nbserve nodes, and merges the returned
// SweepResults. Each shard sweep here is exactly one shard of the
// in-process parallel pool — same scorer selection, same enumeration
// order, same kernel — so merging the per-shard results in lexicographic
// prefix order reproduces the single-process parallel sweep exactly.

// SweepShardCtx sweeps the single prefix shard of the n! enumeration
// identified by prefix: every full permutation whose sources
// 0..len(prefix)−1 send to prefix[0..len(prefix)−1]. Routers with
// cacheable link sets run the delta engine over Heap-swap enumeration;
// pattern-dependent routers fall back to the per-pattern Checker over
// lexicographic enumeration (the parallel pool's orders). A prefix with an
// out-of-range or repeated destination is an error. A
// routing failure stops the shard and is reported in SweepResult.RouteErr
// (not as the returned error) so a coordinator can distinguish "shard
// finished, route error found" from transport failures; the coordinator
// must then re-derive the canonical error via SweepFirstRouteErr. fn, if
// non-nil, receives tested/blocked deltas on the cancellation-poll
// stride. An empty prefix sweeps the full enumeration.
func SweepShardCtx(ctx context.Context, r routing.Router, hosts int, prefix []int, fn ProgressFunc) (*SweepResult, error) {
	return sweepShard(ctx, r, hosts, prefix, false, fn)
}

// SweepShardFirstBlockedCtx is SweepShardCtx stopping at the shard's
// first blocked pattern (in the shard engine's enumeration order). The
// coordinator uses it to re-derive a canonical FirstBlocked witness for
// the lowest blocked top-level shard when the sweep was split deeper than
// one prefix level — sub-shard witnesses cannot be merged into the
// single-process answer, but a first-blocked scan of the whole top-level
// shard in its native order can.
func SweepShardFirstBlockedCtx(ctx context.Context, r routing.Router, hosts int, prefix []int, fn ProgressFunc) (*SweepResult, error) {
	return sweepShard(ctx, r, hosts, prefix, true, fn)
}

func sweepShard(ctx context.Context, r routing.Router, hosts int, prefix []int, firstOnly bool, fn ProgressFunc) (*SweepResult, error) {
	res := &SweepResult{}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if hosts <= 0 {
		return res, nil
	}
	for i, d := range prefix {
		// A repeated destination would denote an empty shard, which merges
		// into a plausible-looking zero result: reject it like an
		// out-of-range one.
		if d < 0 || d >= hosts || slices.Contains(prefix[:i], d) {
			return res, fmt.Errorf("analysis: shard prefix %v is not a destination prefix for %d hosts", prefix, hosts)
		}
	}
	return newEngine(r, hosts).sweep(ctx, prefix, false, firstOnly, fn)
}

// MergeShardSweeps folds per-shard sweep results, given in lexicographic
// prefix order, the same way the in-process parallel sweep merges its
// level-1 shards: counts are exact sums, MaxLinkLoad is the max, and
// FirstBlocked comes from the first (lowest-prefix) blocked shard in that
// shard's own enumeration order. RouteErr is taken from the first shard
// reporting one; callers must then discard the statistical fields and
// re-derive the canonical error with SweepFirstRouteErr, exactly as the
// parallel pool does.
func MergeShardSweeps(results []SweepResult) *SweepResult {
	merged := &SweepResult{}
	for i := range results {
		sr := &results[i]
		merged.Tested += sr.Tested
		merged.Blocked += sr.Blocked
		merged.MaxLinkLoad = max(merged.MaxLinkLoad, sr.MaxLinkLoad)
		if merged.FirstBlocked == nil {
			merged.FirstBlocked = sr.FirstBlocked
		}
		if merged.RouteErr == nil {
			merged.RouteErr = sr.RouteErr
		}
	}
	return merged
}
