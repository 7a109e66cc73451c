package analysis

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/permutation"
	"repro/internal/routing"
)

// Spec selects how Sweep walks the hosts! full permutations. Each field is
// one independent choice; the zero Spec is the sequential full sweep in
// Heap order.
type Spec struct {
	// Parallel fans the n level-1 prefix shards over a pool of Workers
	// goroutines (Workers ≤ 0 selects GOMAXPROCS) and merges them in shard
	// order. Counts, MaxLinkLoad and a routing error (the canonical
	// sequential-order first one) equal the sequential sweep's;
	// FirstBlocked is the first blocked pattern of the lowest blocked
	// level-1 shard, not the sequential sweep's Heap-order witness. On
	// cancellation the merged partial counters depend on where each worker
	// observed the signal: progress indicators only.
	Parallel bool
	Workers  int
	// FirstBlocked stops at the first blocked pattern: Tested counts the
	// patterns examined up to and including it, Blocked is at most 1, and
	// MaxLinkLoad covers only the examined prefix. A nonblocking router
	// yields the full sweep's result.
	FirstBlocked bool
	// SymBlock, when nonzero, reduces the sweep over the block symmetry
	// group of a fabric with SymBlock hosts per bottom switch: one
	// representative per orbit, counters scaled by orbit size, and the
	// witness re-derived in the unreduced sweep's own order, so the result
	// is byte-identical to the unreduced sweep's. Where the reduction does
	// not apply the unreduced engine runs instead and SymStats.Reason says
	// why. The orbit sweep itself is sequential — orders of magnitude
	// smaller than the full one — so with Parallel the pool serves only
	// the fallback.
	SymBlock int
	// Prefix, when non-nil, sweeps one shard of the parallel pool: the
	// patterns whose sources 0..len(Prefix)−1 send to Prefix, in that
	// pool's per-shard order (an empty Prefix is the whole space in that
	// order). A destination out of range or repeated is an error. Merging
	// per-shard results in lexicographic prefix order (MergeShardSweeps)
	// reproduces the Parallel sweep.
	Prefix []int
	// SymShard, when non-nil, is a [lo, hi) range of top-level necklace
	// indices (permutation.BlockSymmetry.Shards): a SymBlock sweep over
	// just those orbits. Its FirstBlocked is the shard's first blocked
	// representative, which only signals blockedness (SweepSymWitness
	// re-derives the full-order witness), and a reduction that does not
	// apply is an error, not a fallback.
	SymShard []int
	// Progress, if non-nil, receives tested/blocked deltas on the
	// cancellation-poll stride (see ProgressFunc); orbit sweeps report
	// orbit-scaled deltas.
	Progress ProgressFunc
}

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

// unsupported names the field combination of s that no engine
// implements, or returns "".
func (s *Spec) unsupported() string {
	switch {
	case s.Workers != 0 && !s.Parallel:
		return "Workers without Parallel"
	case s.Parallel && s.FirstBlocked:
		return "Parallel with FirstBlocked"
	case s.Prefix != nil && (s.Parallel || s.SymBlock != 0 || s.SymShard != nil):
		return "Prefix with Parallel or symmetry reduction"
	case s.SymShard != nil && (s.Parallel || s.FirstBlocked || len(s.SymShard) != 2):
		return "SymShard with Parallel, FirstBlocked, or a range other than [lo, hi)"
	}
	return ""
}

// Sweep routes every full permutation of hosts endpoints the way s asks
// and checks each for contention — for deterministic routing a second,
// independent exact verdict next to CheckLemma1AllPairs, for adaptive
// routing the ground truth on small networks. It is the one entry point
// to every exhaustive engine.
//
// Routers with pattern-independent per-pair paths are swept by the
// incremental delta engine over a precomputed routing.RouteTable; every
// other router — or one whose table build fails — by the per-pattern
// Checker, with identical results, routing errors included.
//
// A routing failure stops the sweep and is SweepResult.RouteErr, not the
// returned error. The returned error is a rejected spec or prefix, an
// inapplicable SymShard, or ctx.Err(): ctx is polled on a stride outside
// the per-pattern accounting, and a cancelled sweep returns its partial
// result with ctx.Err(). The result is never nil, and SymStats is non-nil
// exactly when s asks for a symmetry reduction.
func Sweep(ctx context.Context, r routing.Router, hosts int, s Spec) (*SweepResult, *SymStats, error) {
	var stats *SymStats
	if s.SymBlock != 0 || s.SymShard != nil {
		stats = &SymStats{}
	}
	if bad := s.unsupported(); bad != "" {
		return &SweepResult{}, stats, fmt.Errorf("analysis: sweep spec %s is not supported", bad)
	}
	if err := ctx.Err(); err != nil {
		return &SweepResult{}, stats, err
	}
	switch {
	case s.Prefix != nil:
		res, err := sweepShard(ctx, r, hosts, &s)
		return res, nil, err
	case stats != nil:
		return sweepSym(ctx, r, hosts, &s)
	}
	e := newEngine(r, hosts)
	if s.Parallel {
		res, err := e.parallel(ctx, s.Workers, s.Progress)
		return res, nil, err
	}
	res, err := e.sweep(ctx, nil, true, s.FirstBlocked, s.Progress)
	return res, nil, err
}

// Shard sweeps: the worker half of the distributed exhaustive sweep. A
// coordinator plans a prefix partition (permutation.PrefixShards), posts
// one shard per request to worker nbserve nodes, and merges the returned
// SweepResults. Each shard sweep here is exactly one shard of the
// in-process parallel pool — same scorer selection, same enumeration
// order, same kernel — so merging the per-shard results in lexicographic
// prefix order reproduces the single-process parallel sweep exactly.

// sweepShard is Sweep for a spec with a Prefix.
func sweepShard(ctx context.Context, r routing.Router, hosts int, s *Spec) (*SweepResult, error) {
	if hosts <= 0 {
		return &SweepResult{}, nil
	}
	for i, d := range s.Prefix {
		// A repeated destination would denote an empty shard, which merges
		// into a plausible-looking zero result: reject it like an
		// out-of-range one.
		if d < 0 || d >= hosts || slices.Contains(s.Prefix[:i], d) {
			return &SweepResult{}, fmt.Errorf("analysis: shard prefix %v is not a destination prefix for %d hosts", s.Prefix, hosts)
		}
	}
	return newEngine(r, hosts).sweep(ctx, s.Prefix, false, s.FirstBlocked, s.Progress)
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

// The sweep kernel. Every exhaustive mode — sequential, first-blocked,
// parallel, prefix shard, symmetry-reduced — and the randomized sweep run
// one per-pattern step (kernel.visit) over one scorer, and the adversarial
// hill climb drives the same scorer directly. Only the contention engine
// behind the scorer depends on the router; the accounting, the witness
// rule and the cancellation/progress stride are shared.
//
// Cancellation: ctx is polled on a stride so the per-pattern hot loop pays
// one masked increment — the delta engine processes a pattern in tens of
// nanoseconds, so calling ctx.Err() per pattern would dominate the sweep.
// Progress callbacks fire on the same stride.

// cancelCheckMask strides context polls to every 4096 patterns — frequent
// enough that cancellation lands within microseconds, rare enough to be
// invisible in the per-pattern cost.
const cancelCheckMask = 1<<12 - 1

// scorer is the contention engine a sweep drives: the incremental
// DeltaChecker over a shared route table when the router's per-pair link
// sets are pattern-independent, else the scratch Checker, which re-routes
// every pattern with r. Both are held by value, so a scorer on a sweep's
// stack costs no allocation beyond its checker's buffers.
type scorer struct {
	d DeltaChecker // in use when d.t != nil
	c Checker
	r routing.Router
}

func (s *scorer) delta() bool { return s.d.t != nil }

// load makes p the current pattern. i, j ≥ 0 name the two sources whose
// destinations were swapped since the previously loaded pattern (the Heap
// and hill-climb step); i < 0 means p is unrelated to it. Only the scratch
// scorer can fail, with the router's error.
func (s *scorer) load(p *permutation.Permutation, i, j int) error {
	if !s.delta() {
		return s.c.AnalyzePattern(s.r, p)
	}
	if i < 0 {
		s.d.Reset(p)
	} else {
		s.d.Swap(i, j)
	}
	return nil
}

// revert backs out the swap of sources i and j that the last load applied,
// without routing anything: the delta scorer swaps back (Swap is its own
// inverse), and the scratch scorer has nothing to undo because its next
// load rebuilds from scratch.
func (s *scorer) revert(i, j int) {
	if s.delta() {
		s.d.Swap(i, j)
	}
}

func (s *scorer) maxLoad() int {
	if s.delta() {
		return s.d.MaxLoad()
	}
	return s.c.MaxLoad()
}

func (s *scorer) contended() int {
	if s.delta() {
		return s.d.ContendedCount()
	}
	return s.c.ContendedCount()
}

// engine is the scorer choice for one router over hosts endpoints. table
// is the route table every delta scorer shares read-only; nil selects the
// scratch Checker, and tableErr then says why no table exists (nil when
// the scratch Checker was forced).
type engine struct {
	r        routing.Router
	hosts    int
	table    *routing.RouteTable
	tableErr error
}

// newEngine makes the one decision every sweep shares: delta scoring when
// routing.BuildRouteTable succeeds, else the scratch Checker. A failed
// build — a pattern-dependent router, a pair that fails to route, a table
// too large for the CSR offsets — is not an error: the scratch scorer
// reproduces the exact accounting, in the failure case including the
// canonical first routing error at the first pattern exercising the
// failing pair.
func newEngine(r routing.Router, hosts int) engine {
	t, err := routing.BuildRouteTable(r, hosts)
	if err != nil {
		return engine{r: r, hosts: hosts, tableErr: err}
	}
	return engine{r: r, hosts: hosts, table: t}
}

// oracleEngine forces the scratch Checker: the independent reference the
// delta engine is tested against.
func oracleEngine(r routing.Router, hosts int) engine {
	return engine{r: r, hosts: hosts}
}

func (e engine) scorer() scorer {
	if e.table != nil {
		return scorer{d: *NewDeltaChecker(e.table)}
	}
	return scorer{r: e.r} // the zero Checker grows on demand
}

// kernel is the per-pattern accounting every sweep shares: counts,
// MaxLinkLoad, the FirstBlocked clone and the first-blocked early exit,
// plus one stride counter that both polls ctx and reports progress.
type kernel struct {
	sc        scorer
	res       *SweepResult
	firstOnly bool
	ctx       context.Context
	fn        ProgressFunc
	// weight is how many patterns of the full space one visit stands
	// for: 1, or the orbit size of a symmetry-reduced sweep's
	// representative.
	weight int
	// mask strides the poll to every mask+1 patterns.
	mask uint
	tick uint
	// lastTested and lastBlocked are res's counters at the last progress
	// report.
	lastTested, lastBlocked int
	cancelled               bool
}

func (e engine) kernel(ctx context.Context, res *SweepResult, firstOnly bool, fn ProgressFunc) kernel {
	return kernel{sc: e.scorer(), res: res, firstOnly: firstOnly, ctx: ctx, fn: fn, weight: 1, mask: cancelCheckMask}
}

// stop advances the stride counter and, once per stride, reports progress
// and polls ctx. It reports whether ctx fired.
func (k *kernel) stop() bool {
	k.tick++
	return k.tick&k.mask == 0 && k.poll()
}

func (k *kernel) poll() bool {
	k.flush()
	k.cancelled = k.ctx.Err() != nil
	return k.cancelled
}

// visit scores pattern p, reached from the previous pattern by swapping
// sources i and j (i < 0: no swap), and counts it as k.weight patterns of
// the full space. It reports whether the walk goes on.
func (k *kernel) visit(p *permutation.Permutation, i, j int) bool {
	if k.stop() {
		return false
	}
	if err := k.sc.load(p, i, j); err != nil {
		k.res.RouteErr = fmt.Errorf("analysis: pattern %s: %w", p, err)
		return false
	}
	res := k.res
	res.Tested += k.weight
	if m := k.sc.maxLoad(); m > res.MaxLinkLoad {
		res.MaxLinkLoad = m
	}
	if k.sc.contended() == 0 {
		return true
	}
	res.Blocked += k.weight
	if res.FirstBlocked == nil {
		// Enumerators reuse p; retain a copy.
		res.FirstBlocked = p.Clone()
	}
	return !k.firstOnly
}

// flush reports the counters accumulated since the last report.
func (k *kernel) flush() {
	if k.fn == nil || k.res == nil {
		return
	}
	if dt, db := k.res.Tested-k.lastTested, k.res.Blocked-k.lastBlocked; dt != 0 || db != 0 {
		k.fn(dt, db)
	}
	k.lastTested, k.lastBlocked = k.res.Tested, k.res.Blocked
}

// use points the kernel at a fresh result, reporting the previous one's
// remaining progress first.
func (k *kernel) use(res *SweepResult) {
	k.flush()
	k.res, k.lastTested, k.lastBlocked = res, res.Tested, res.Blocked
}

// finish reports the remaining progress, so deltas sum exactly to the
// counters, and returns ctx's error when the walk stopped on it.
func (k *kernel) finish() error {
	k.flush()
	if k.cancelled {
		return k.ctx.Err()
	}
	return nil
}

// walk runs the kernel over one prefix shard — every pattern whose sources
// 0..len(prefix)−1 send to prefix — or over the whole space when prefix is
// empty. The delta scorer needs swap-adjacent patterns and always walks
// Heap order. The scratch scorer walks Heap order when heap is set (the
// sequential sweep) and lexicographic order otherwise (prefix shards and
// the parallel pool): each mode's FirstBlocked witness is the first
// blocked pattern in that order.
func (k *kernel) walk(hosts int, prefix []int, heap bool) {
	if !k.sc.delta() && !heap {
		permutation.EnumerateFullPrefixSeq(hosts, prefix, func(p *permutation.Permutation) bool {
			return k.visit(p, -1, -1)
		})
		return
	}
	if len(prefix) == 0 {
		permutation.EnumerateFullSwaps(hosts, k.visit)
	} else {
		permutation.EnumerateFullPrefixSeqSwaps(hosts, prefix, k.visit)
	}
}

// sweep runs one walk (see kernel.walk) on a fresh scorer.
func (e engine) sweep(ctx context.Context, prefix []int, heap, firstOnly bool, fn ProgressFunc) (*SweepResult, error) {
	res := &SweepResult{}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	k := e.kernel(ctx, res, firstOnly, fn)
	k.walk(e.hosts, prefix, heap)
	return res, k.finish()
}

// parallel is the one worker pool: it fans the n level-1 prefix shards
// over workers goroutines (≤ 0 selects GOMAXPROCS), each owning one kernel
// and scorer, and merges the shard results in shard order, so FirstBlocked
// is the first blocked pattern of the lowest blocked level-1 shard — not
// the sequential sweep's witness. Every worker polls ctx on the kernel
// stride, the feeder stops once ctx fires, and all workers are joined
// before return. A routing error in any shard stops the pool; the other
// shards' partial counters are then racy, so the result is instead the
// canonical sequential-order first routing error (SweepFirstRouteErr),
// which depends only on the router.
func (e engine) parallel(ctx context.Context, workers int, fn ProgressFunc) (*SweepResult, error) {
	if e.hosts <= 1 {
		return e.sweep(ctx, nil, true, false, fn)
	}
	if err := ctx.Err(); err != nil {
		return &SweepResult{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]SweepResult, e.hosts)
	pool, abort := context.WithCancel(ctx)
	defer abort()
	shards := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := e.kernel(pool, nil, false, fn)
			for shard := range shards {
				if k.cancelled {
					continue // drain the channel so the feeder never blocks
				}
				k.use(&results[shard])
				k.walk(e.hosts, []int{shard}, false)
				if k.res.RouteErr != nil {
					k.cancelled = true
					abort()
				}
			}
			k.flush()
		}()
	}
feed:
	for shard := 0; shard < e.hosts; shard++ {
		select {
		case shards <- shard:
		case <-pool.Done():
			break feed
		}
	}
	close(shards)
	wg.Wait()
	merged := MergeShardSweeps(results)
	if err := ctx.Err(); err != nil {
		// Partial counters depend on where each worker observed the
		// signal: progress indicators only.
		merged.RouteErr = nil
		return merged, err
	}
	if merged.RouteErr != nil {
		return SweepFirstRouteErr(e.r, e.hosts), nil
	}
	return merged, nil
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
	res, _ := oracleEngine(r, hosts).sweep(context.Background(), nil, true, false, nil)
	return &SweepResult{RouteErr: res.RouteErr}
}
