package analysis

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/topology"
)

// cancelTestRouter builds the ftree(2+4,8) paper router: 16 hosts,
// cacheable per-pair link sets, so both the delta and (forced) oracle
// engines apply.
func cancelTestRouter(t *testing.T) (routing.Router, int) {
	t.Helper()
	f := topology.NewFoldedClos(2, 4, 8)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	return r, f.Ports()
}

// TestSweepCtxBackgroundParity pins the no-cancellation contract: every
// sweep run under a live but never-cancelled context — so every stride
// poll actually consults it — returns a nil error and exactly the result
// of the same sweep under context.Background(). hosts=7 keeps the
// exhaustive sweeps at 5040 patterns.
func TestSweepCtxBackgroundParity(t *testing.T) {
	r, _ := cancelTestRouter(t)
	const hosts = 7
	ctx := context.Background()
	live, cancel := context.WithCancel(ctx)
	defer cancel()

	for _, v := range []struct {
		name string
		run  func(ctx context.Context) (*SweepResult, error)
	}{
		{"exhaustive", func(ctx context.Context) (*SweepResult, error) { return SweepExhaustiveCtx(ctx, r, hosts) }},
		{"first-blocked", func(ctx context.Context) (*SweepResult, error) { return SweepExhaustiveFirstBlockedCtx(ctx, r, hosts) }},
		{"oracle", func(ctx context.Context) (*SweepResult, error) {
			return oracleEngine(r, hosts).sweep(ctx, nil, true, false, nil)
		}},
		{"random", func(ctx context.Context) (*SweepResult, error) { return SweepRandomCtx(ctx, r, hosts, 500, 42) }},
		{"parallel", func(ctx context.Context) (*SweepResult, error) { return SweepExhaustiveParallelCtx(ctx, r, hosts, 3) }},
	} {
		want, err := v.run(ctx)
		if err != nil {
			t.Fatalf("%s: background ctx returned %v", v.name, err)
		}
		got, err := v.run(live)
		if err != nil {
			t.Fatalf("%s: live ctx returned %v", v.name, err)
		}
		sameSweepResult(t, v.name, got, want)
	}

	s := &WorstCaseSearch{Router: r, Hosts: hosts, Restarts: 4, Steps: 200, Seed: 7}
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunCtx(live)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContendedLinks != want.ContendedLinks || got.MaxLoad != want.MaxLoad || got.Evaluated != want.Evaluated {
		t.Fatalf("worst-case: ctx (%d,%d,%d) vs plain (%d,%d,%d)",
			got.ContendedLinks, got.MaxLoad, got.Evaluated,
			want.ContendedLinks, want.MaxLoad, want.Evaluated)
	}
	if !sameWitness(got.Permutation, want.Permutation) {
		t.Fatalf("worst-case: permutation %s vs %s", got.Permutation, want.Permutation)
	}
}

// TestSweepCtxPreCancelled pins the fast path: an already-cancelled context
// returns ctx.Err() without touching a single pattern.
func TestSweepCtxPreCancelled(t *testing.T) {
	r, hosts := cancelTestRouter(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, v := range []struct {
		name string
		run  func() (*SweepResult, error)
	}{
		{"exhaustive", func() (*SweepResult, error) { return SweepExhaustiveCtx(ctx, r, hosts) }},
		{"first-blocked", func() (*SweepResult, error) { return SweepExhaustiveFirstBlockedCtx(ctx, r, hosts) }},
		{"oracle", func() (*SweepResult, error) { return oracleEngine(r, hosts).sweep(ctx, nil, true, false, nil) }},
		{"random", func() (*SweepResult, error) { return SweepRandomCtx(ctx, r, hosts, 1000, 1) }},
		{"parallel", func() (*SweepResult, error) { return SweepExhaustiveParallelCtx(ctx, r, hosts, 4) }},
	} {
		res, err := v.run()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", v.name, err)
		}
		if res == nil {
			t.Fatalf("%s: nil result on cancellation", v.name)
		}
		if res.Tested != 0 {
			t.Fatalf("%s: tested %d patterns under a pre-cancelled ctx", v.name, res.Tested)
		}
	}

	s := &WorstCaseSearch{Router: r, Hosts: hosts, Restarts: 10, Steps: 1000, Seed: 1}
	res, err := s.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("worst-case: err = %v, want context.Canceled", err)
	}
	if res == nil || res.Evaluated != 0 {
		t.Fatalf("worst-case: evaluated %v patterns under a pre-cancelled ctx", res)
	}
}

// TestSweepCtxCancelPrompt starts sweeps that would take far longer than
// any test timeout (16! exhaustive patterns; effectively unbounded
// worst-case search) and cancels them shortly after start. Each call must
// observe the signal within the polling stride — bounded here at 10s of
// wall clock, orders of magnitude under the uncancelled runtime — and all
// parallel workers must be joined on return (no goroutine leak).
func TestSweepCtxCancelPrompt(t *testing.T) {
	r, hosts := cancelTestRouter(t) // 16 hosts: 16! ≈ 2·10^13 patterns
	before := runtime.NumGoroutine()

	for _, v := range []struct {
		name string
		run  func(ctx context.Context) (int, error)
	}{
		{"exhaustive-delta", func(ctx context.Context) (int, error) {
			res, err := SweepExhaustiveCtx(ctx, r, hosts)
			return res.Tested, err
		}},
		{"exhaustive-oracle", func(ctx context.Context) (int, error) {
			res, err := oracleEngine(r, hosts).sweep(ctx, nil, true, false, nil)
			return res.Tested, err
		}},
		{"random", func(ctx context.Context) (int, error) {
			res, err := SweepRandomCtx(ctx, r, hosts, 1<<30, 99)
			return res.Tested, err
		}},
		{"parallel-delta", func(ctx context.Context) (int, error) {
			res, err := SweepExhaustiveParallelCtx(ctx, r, hosts, 4)
			return res.Tested, err
		}},
		{"parallel-oracle", func(ctx context.Context) (int, error) {
			res, err := oracleEngine(r, hosts).parallel(ctx, 4, nil)
			return res.Tested, err
		}},
		{"worst-case", func(ctx context.Context) (int, error) {
			s := &WorstCaseSearch{Router: r, Hosts: hosts, Restarts: 1 << 30, Steps: 1 << 30, Seed: 3}
			res, err := s.RunCtx(ctx)
			return res.Evaluated, err
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		_, err := v.run(ctx)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", v.name, err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("%s: took %v to observe cancellation", v.name, elapsed)
		}
	}

	// All workers are joined before the Ctx calls return, so the goroutine
	// count settles back to the baseline (poll briefly: the runtime may
	// still be tearing down timer goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrunedSweepCancelAtFirstProgress cancels a Parallel sweep of the
// ftree(2+4,5) spray routing — 10 hosts, 98% of the patterns blocked, so
// the pruned walk counts most of them in whole subtrees — from inside its
// first progress callback. The sweep must return ctx.Err() within the
// stride and report deltas that sum to its partial counters. A pruned
// subtree advances the stride by its size, so each worker's first callback
// comes within one stride plus one subtree (at most 8! patterns below a
// level-1 prefix) of its start. A worker checks the stride before
// counting, so after the signal it accounts for less than one more
// stride: with one worker the sweep stops at the very poll that delivered
// the callback. A second worker may also hold, unreported, the subtree
// counted right after its last poll and the patterns after it within
// that stride.
func TestPrunedSweepCancelAtFirstProgress(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r := routing.NewFullSpray(f)
	hosts := f.Ports()
	stride, subtree := cancelCheckMask+1, factorials[hosts-2]
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var tested, blocked, first int
		fn := func(dt, db int) {
			mu.Lock()
			defer mu.Unlock()
			tested += dt
			blocked += db
			if first == 0 {
				first = tested
				cancel()
			}
		}
		res, _, err := Sweep(ctx, r, hosts, Spec{Parallel: true, Workers: workers, Progress: fn})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if tested != res.Tested || blocked != res.Blocked {
			t.Fatalf("workers=%d: deltas sum to (%d,%d), partial result (%d,%d)", workers, tested, blocked, res.Tested, res.Blocked)
		}
		if first == 0 || first > workers*(stride+subtree) {
			t.Fatalf("workers=%d: first callback after %d patterns: the stride does not count pruned patterns", workers, first)
		}
		if bound := first + (workers-1)*(2*stride+subtree); res.Tested > bound {
			t.Fatalf("workers=%d: %d patterns counted, first callback at %d: more than the stride allows (%d)", workers, res.Tested, first, bound)
		}
	}
}

// TestPrunedSweepProgressStride runs the same sweep to completion on one
// worker: every progress delta covers at most one stride plus the one
// pruned subtree counted right after the previous poll, because a pruned
// subtree advances the stride by its size rather than by one.
func TestPrunedSweepProgressStride(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r := routing.NewFullSpray(f)
	hosts := f.Ports()
	var tested, calls, largest int
	fn := func(dt, _ int) {
		tested += dt
		calls++
		largest = max(largest, dt)
	}
	res := mustSweep(t, r, hosts, Spec{Parallel: true, Workers: 1, Progress: fn})
	if tested != res.Tested {
		t.Fatalf("deltas sum to %d, result %d", tested, res.Tested)
	}
	if bound := cancelCheckMask + 1 + factorials[hosts-2]; largest > bound {
		t.Fatalf("a progress delta of %d patterns (%d calls): more than one stride and one subtree (%d)", largest, calls, bound)
	}
}
