package analysis

import (
	"context"

	"repro/internal/routing"
)

// Sweep progress reporting. Long sweeps (minutes of wall clock once the
// host count passes the delta engine's comfort zone) are consumed by
// interactive clients — nbserve's SSE job streams, nbverify's -remote
// mode — that need to show liveness without slowing the hot loop. The
// hooks share the sweep kernel's strided cancellation poll: the callback
// fires at most once per cancelCheckMask+1 patterns plus one flush per
// enumeration (and per shard in the parallel pool).

// ProgressFunc receives incremental sweep progress: the number of patterns
// tested and found blocked since the previous call from the same sweep
// goroutine. Parallel sweeps invoke one callback concurrently from every
// worker, so implementations must be safe for concurrent use (atomic adds
// are the intended shape); deltas from all workers sum to the final
// SweepResult counters. Callbacks run on the sweep hot path — keep them
// cheap and never block.
type ProgressFunc func(testedDelta, blockedDelta int)

// SweepExhaustiveProgressCtx is SweepExhaustiveCtx with progress
// reporting: fn receives tested/blocked deltas on the cancellation-poll
// stride. A nil fn makes it exactly SweepExhaustiveCtx.
func SweepExhaustiveProgressCtx(ctx context.Context, r routing.Router, hosts int, fn ProgressFunc) (*SweepResult, error) {
	return sweepExhaustive(ctx, r, hosts, false, fn)
}

// SweepExhaustiveParallelProgressCtx is SweepExhaustiveParallelCtx with
// progress reporting: every worker goroutine forwards its deltas to fn
// (which therefore must be concurrency-safe). A nil fn makes it exactly
// SweepExhaustiveParallelCtx.
func SweepExhaustiveParallelProgressCtx(ctx context.Context, r routing.Router, hosts, workers int, fn ProgressFunc) (*SweepResult, error) {
	return sweepExhaustiveParallel(ctx, r, hosts, workers, fn)
}
