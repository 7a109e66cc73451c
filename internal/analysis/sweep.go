package analysis

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// level-1 shard, not the sequential sweep's Heap-order witness. Under
	// the delta engine the workers only count (see kernel.count), and the
	// calling goroutine re-walks that one shard for its witness after the
	// merge. On cancellation the merged partial counters depend on where
	// each worker observed the signal: progress indicators only.
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
// enumeration (and per shard in the parallel pool). The stride counts
// patterns accounted for, not patterns visited: the delta engine's pruned
// count takes a blocked subtree of up to (hosts−2)! patterns in one step,
// so one delta can be that large.

// ProgressFunc receives incremental sweep progress: the number of patterns
// tested and found blocked since the previous call from the same sweep
// goroutine. A witness re-derivation after a pruned count reports nothing:
// its patterns are already counted. Parallel sweeps invoke one callback concurrently from every
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
	e := newEngine(r, hosts, allPatterns)
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
	return newEngine(r, hosts, allPatterns).sweep(ctx, s.Prefix, false, s.FirstBlocked, s.Progress)
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
// stack costs no allocation beyond its checker's buffers and, for the
// pruned walk, its own scratch, allocated once per scorer.
type scorer struct {
	d DeltaChecker // in use when d.t != nil
	c Checker
	r routing.Router
	// The pruned walk's state (kernel.count). used[dt] marks a destination
	// taken by the prefix or an enclosing node and is sized on the first
	// walk; leafC holds the leaf enumeration's Heap counters; pruned says
	// whether the current walk counted a subtree without visiting it; m is
	// sized on the first walk that prunes.
	used   []bool
	leafC  [pruneLeaf]int
	pruned bool
	m      matching
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

// newEngine makes the one decision every sweep shares: delta scoring over
// a route table when the table pays for itself and routing.BuildRouteTable
// succeeds, else the scratch Checker. patterns is about how many full
// patterns the caller will score. The table routes the hosts·(hosts−1)
// pairs once; the scratch Checker routes about hosts pairs per pattern. So
// a table is built only when hosts ≤ patterns: the random sweep passes its
// trial count, and every other caller passes allPatterns. A failed build —
// a pattern-dependent router, a pair that fails to route, a table past its
// memory budget — is not an error: the scratch scorer reproduces the exact
// accounting, in the failure case including the canonical first routing
// error at the first pattern exercising the failing pair.
func newEngine(r routing.Router, hosts, patterns int) engine {
	if hosts > patterns {
		return oracleEngine(r, hosts)
	}
	t, err := routing.BuildRouteTable(r, hosts)
	if err != nil {
		return engine{r: r, hosts: hosts, tableErr: err}
	}
	return engine{r: r, hosts: hosts, table: t}
}

// allPatterns is newEngine's pattern count for callers that always score
// at least hosts patterns: every exhaustive sweep (hosts! ≥ hosts) and the
// hill climb, whose steps cost a swap each on a table.
const allPatterns = math.MaxInt

// oracleEngine forces the scratch Checker: the independent reference the
// delta engine is tested against.
func oracleEngine(r routing.Router, hosts int) engine {
	return engine{r: r, hosts: hosts}
}

func (e engine) scorer() scorer {
	if e.table != nil {
		return scorer{d: newDeltaChecker(e.table)}
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

// stop advances the stride counter by n patterns and, when that crosses a
// stride boundary, reports progress and polls ctx. It reports whether ctx
// fired.
func (k *kernel) stop(n uint) bool {
	t := k.tick + n
	crossed := t&^k.mask != k.tick&^k.mask
	k.tick = t
	return crossed && k.poll()
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
	if k.stop(1) {
		return false
	}
	if err := k.sc.load(p, i, j); err != nil {
		k.res.RouteErr = fmt.Errorf("analysis: pattern %s: %w", p, err)
		return false
	}
	if !k.tally() {
		return true
	}
	if k.res.FirstBlocked == nil {
		// Enumerators reuse p; retain a copy.
		k.res.FirstBlocked = p.Clone()
	}
	return !k.firstOnly
}

// tally counts the scorer's current pattern as k.weight patterns and
// reports whether it is blocked.
func (k *kernel) tally() bool {
	res := k.res
	res.Tested += k.weight
	if m := k.sc.maxLoad(); m > res.MaxLinkLoad {
		res.MaxLinkLoad = m
	}
	if k.sc.contended() == 0 {
		return false
	}
	res.Blocked += k.weight
	return true
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
// empty. A delta scorer counts the shard with the pruned walk (count),
// which leaves FirstBlocked to a second, early-exit walk (witness), unless
// the kernel stops at the first blocked pattern. Early-exit walks visit
// every pattern in an enumeration order whose first blocked pattern is the
// mode's witness. The delta scorer needs swap-adjacent patterns and always
// walks Heap order. The scratch scorer walks Heap order when heap is set
// (the sequential sweep) and lexicographic order otherwise (prefix shards
// and the parallel pool).
func (k *kernel) walk(hosts int, prefix []int, heap bool) {
	switch {
	case k.prunes(hosts) && !k.firstOnly:
		k.count(hosts, prefix)
	case !k.sc.delta() && !heap:
		permutation.EnumerateFullPrefixSeq(hosts, prefix, func(p *permutation.Permutation) bool {
			return k.visit(p, -1, -1)
		})
	case len(prefix) == 0:
		permutation.EnumerateFullSwaps(hosts, k.visit)
	default:
		permutation.EnumerateFullPrefixSeqSwaps(hosts, prefix, k.visit)
	}
}

// witness returns the first blocked pattern of one shard in the early-exit
// walk's order (see walk), scanned on k's own scorer with progress off:
// the pruned count already reported the shard's patterns, so k.res gets
// its counters back afterwards. Call it only for a shard known to block;
// it returns nil if ctx fires first.
func (k *kernel) witness(hosts int, prefix []int, heap bool) *permutation.Permutation {
	res := k.res
	saved, fn, firstOnly := *res, k.fn, k.firstOnly
	k.fn, k.firstOnly = nil, true
	k.walk(hosts, prefix, heap)
	w := res.FirstBlocked
	*res, k.fn, k.firstOnly = saved, fn, firstOnly
	return w
}

// sweep runs one walk (see kernel.walk) on a fresh scorer, and the witness
// walk when the pruned count found the shard blocked.
func (e engine) sweep(ctx context.Context, prefix []int, heap, firstOnly bool, fn ProgressFunc) (*SweepResult, error) {
	res := &SweepResult{}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	k := e.kernel(ctx, res, firstOnly, fn)
	k.walk(e.hosts, prefix, heap)
	if res.Blocked > 0 && res.FirstBlocked == nil && !k.cancelled {
		res.FirstBlocked = k.witness(e.hosts, prefix, heap)
	}
	return res, k.finish()
}

// The pruned walk. A route table exists only for a router whose per-pair
// link sets do not depend on the pattern, and adding a pair to a partial
// pattern only ever raises link loads. So a partial pattern that contends
// still contends in every full pattern that extends it: all (n−depth)! of
// them are blocked, and the walk counts them at once instead of visiting
// them. That argument fails for adaptive and global routers, whose paths
// depend on the whole pattern; they have no route table and never reach
// this walk.

// pruneLeaf is the number of last sources the pruned walk does not recurse
// on: their pruneLeaf! arrangements are walked in Heap order, one
// DeltaChecker.Swap per pattern like the unpruned walk, so a walk that
// prunes nothing costs what the plain Heap walk costs. Recursing down to
// the last source would pay an add and a remove per pattern instead.
const pruneLeaf = 4

// factorials[i] is i!, for every i whose factorial fits in an int.
var factorials = func() []int {
	f := []int{1}
	for i := 1; f[i-1]*i/i == f[i-1]; i++ {
		f = append(f, f[i-1]*i)
	}
	return f
}()

// prunes reports whether k counts with the pruned walk: it needs a delta
// scorer, and a host count whose whole space hosts! is representable, so
// no sum of pruned subtree sizes can overflow the counters.
func (k *kernel) prunes(hosts int) bool {
	return k.sc.delta() && hosts < len(factorials)
}

// count is the pruned walk over one prefix shard. It assigns sources from
// len(prefix) upward, each to every free destination in ascending order,
// and counts a contended partial pattern's completions as tested and
// blocked without visiting them (see above); the last pruneLeaf sources
// take the free destinations left in a Heap enumeration (leaves). Its
// visiting order is no enumeration order, so FirstBlocked stays nil. With
// firstOnly it stops at the first blocked pattern or pruned subtree: a
// probe for whether the shard blocks.
//
// MaxLinkLoad is exact. When nothing was pruned, every pattern was visited
// and it is the largest load seen. Otherwise it is the largest load any
// completion of the prefix puts on one link, by bipartite matching
// (DeltaChecker.maxCompletionLoad), computed once per walk.
func (k *kernel) count(hosts int, prefix []int) {
	sc := &k.sc
	if sc.used == nil {
		sc.used = make([]bool, hosts)
	}
	clear(sc.used)
	for _, dt := range prefix {
		sc.used[dt] = true
	}
	sc.d.resetPrefix(prefix)
	sc.pruned = false
	if sc.d.contended > 0 {
		sc.pruned = true
		k.prune(factorials[hosts-len(prefix)])
	} else {
		k.dfs(len(prefix))
	}
	if sc.pruned && !k.cancelled && !k.firstOnly {
		if sc.m.off == nil {
			sc.m = newMatching(hosts)
		}
		k.res.MaxLinkLoad = sc.d.maxCompletionLoad(len(prefix), sc.used, &sc.m, k.res.MaxLinkLoad)
	}
}

// dfs walks every completion of the uncontended partial pattern that
// assigns sources 0..s−1. It reports whether the walk goes on.
func (k *kernel) dfs(s int) bool {
	sc := &k.sc
	n := len(sc.used)
	if n-s <= pruneLeaf {
		return k.leaves(s)
	}
	for dt, taken := range sc.used {
		if taken {
			continue
		}
		sc.d.add(s, dt)
		var more bool
		if sc.d.contended > 0 {
			sc.pruned = true
			more = k.prune(factorials[n-s-1])
		} else {
			sc.used[dt] = true
			more = k.dfs(s + 1)
			sc.used[dt] = false
		}
		sc.d.remove(s, dt)
		if !more {
			return false
		}
	}
	return true
}

// leaves gives sources base..n−1 the free destinations in ascending order,
// scores every arrangement of them in Heap order, and unloads them. It
// reports whether the walk goes on.
func (k *kernel) leaves(base int) bool {
	d := &k.sc.d
	n := len(d.dst)
	s := base
	for dt, taken := range k.sc.used {
		if !taken {
			d.dst[s] = int32(dt)
			d.add(s, dt)
			s++
		}
	}
	more := k.score()
	c := k.sc.leafC[:n-base]
	clear(c)
	// Heap's algorithm as in permutation.EnumerateFullSwaps; c[0] stays 0,
	// so each swap restarts the scan at i = 1.
	for i := 1; more && i < len(c); {
		if c[i] < i {
			a := 0
			if i%2 == 1 {
				a = c[i]
			}
			d.Swap(base+a, base+i)
			more = k.score()
			c[i]++
			i = 1
		} else {
			c[i] = 0
			i++
		}
	}
	for s := base; s < n; s++ {
		d.remove(s, int(d.dst[s]))
		d.dst[s] = permutation.Unused
	}
	return more
}

// score counts the pattern the delta scorer holds. It reports whether the
// walk goes on.
func (k *kernel) score() bool {
	return !k.stop(1) && (!k.tally() || !k.firstOnly)
}

// prune counts size patterns, the completions of a contended partial
// pattern, as tested and blocked; the stride advances by all of them. It
// reports whether the walk goes on.
func (k *kernel) prune(size int) bool {
	if k.stop(uint(size)) {
		return false
	}
	k.res.Tested += size
	k.res.Blocked += size
	return !k.firstOnly
}

// parallel is the one worker pool: it fans the n level-1 prefix shards,
// taken in ascending order, over workers goroutines (≤ 0 selects
// GOMAXPROCS; the calling goroutine is one of them), each owning one
// kernel and scorer, and merges the shard results in shard order, so
// FirstBlocked is the first blocked pattern of the lowest blocked level-1
// shard — not the sequential sweep's witness. A pruned count leaves it to
// the calling goroutine's kernel, which walks just that shard again after
// the merge. Every worker polls ctx on the kernel stride and takes no
// shard once ctx fires, and all workers are joined before return. A
// routing error in any shard stops the pool; the other shards' partial
// counters are then racy, so the result is instead the canonical
// sequential-order first routing error (SweepFirstRouteErr), which depends
// only on the router.
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
	var next atomic.Int64
	work := func(k *kernel, prefix []int) {
		for !k.cancelled && pool.Err() == nil {
			shard := int(next.Add(1) - 1)
			if shard >= e.hosts {
				break
			}
			prefix[0] = shard
			k.use(&results[shard])
			k.walk(e.hosts, prefix, false)
			if k.res.RouteErr != nil {
				k.cancelled = true
				abort()
			}
		}
		k.flush()
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, e.hosts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := e.kernel(pool, nil, false, fn)
			work(&k, []int{0})
		}()
	}
	k := e.kernel(pool, nil, false, fn)
	prefix := []int{0}
	work(&k, prefix)
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
	if merged.Blocked > 0 && merged.FirstBlocked == nil {
		for shard := range results {
			if results[shard].Blocked > 0 {
				prefix[0] = shard
				k.use(&results[shard])
				merged.FirstBlocked = k.witness(e.hosts, prefix, false)
				break
			}
		}
	}
	return merged, ctx.Err()
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
