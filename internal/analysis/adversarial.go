package analysis

import (
	"context"
	"math/rand"

	"repro/internal/permutation"
	"repro/internal/routing"
)

// WorstCaseSearch looks for permutations that maximize contention under a
// router by seeded random restarts plus pairwise-swap hill climbing: the
// adversarial counterpart to the average-case BlockingProbability. The
// objective is the number of contended links, with the maximum per-link
// load as tie-breaker. For deterministic routing the Lemma-1 analysis
// already yields exact two-pair witnesses; this search instead produces
// *heavily* blocked full permutations, quantifying how bad worst-case
// patterns get (the paper's motivation cites factor-of-several throughput
// losses, which need many contended links, not just one).
type WorstCaseSearch struct {
	// Router is the scheme under attack.
	Router routing.Router
	// Hosts is the endpoint count.
	Hosts int
	// Restarts and Steps bound the search (restarts × steps routings).
	Restarts, Steps int
	// Seed makes the search reproducible.
	Seed int64
}

// WorstCaseResult reports the most-contended pattern found.
type WorstCaseResult struct {
	// Permutation is the worst pattern found (a clone; caller-owned).
	Permutation *permutation.Permutation
	// ContendedLinks and MaxLoad are its contention metrics.
	ContendedLinks, MaxLoad int
	// Evaluated counts routed candidate patterns.
	Evaluated int
}

// Run executes the search. Routing errors abort with the error. Routers
// with cacheable per-pair link sets are scored by a DeltaChecker over a
// precomputed route table — a candidate swap is applied, scored, and (on
// rejection) backed out, all in O(path length); pattern-dependent routers
// re-route every candidate. Both consume the RNG identically and make the
// same acceptance decisions, so results are identical for a given seed.
func (s *WorstCaseSearch) Run() (*WorstCaseResult, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: the search polls ctx once
// per restart and on a stride within the step loop, outside the
// per-candidate scoring. On cancellation it returns the best pattern found
// so far together with ctx.Err(), so callers can keep the partial result or
// discard it. A run completing under a never-cancelled context is identical
// to Run's for the same seed.
//
// The climb keeps one pattern: a step swaps two destinations in place and
// scores the candidate; a rejected step swaps back and reverts the scorer
// without routing anything. The best pattern is snapshotted into a reused
// buffer, so the search allocates nothing per step.
func (s *WorstCaseSearch) RunCtx(ctx context.Context) (*WorstCaseResult, error) {
	best := &WorstCaseResult{}
	if err := ctx.Err(); err != nil {
		return best, err
	}
	e := newEngine(s.Router, s.Hosts, allPatterns)
	k := e.kernel(ctx, nil, false, nil) // for the stride poll only
	rng := rand.New(rand.NewSource(s.Seed))
	cur := permutation.New(s.Hosts)
	bestDst, found := make([]int, s.Hosts), false
	consider := func(contended, load int) {
		if !found || contended > best.ContendedLinks || (contended == best.ContendedLinks && load > best.MaxLoad) {
			for src := range bestDst {
				bestDst[src] = cur.Dst(src)
			}
			best.ContendedLinks, best.MaxLoad, found = contended, load, true
		}
	}
	finish := func(err error) (*WorstCaseResult, error) {
		if found {
			// A snapshot of a full pattern: it always validates.
			best.Permutation, _ = permutation.FromDsts(bestDst)
		}
		return best, err
	}
	for restart := 0; restart < s.Restarts; restart++ {
		if ctx.Err() != nil {
			return finish(ctx.Err())
		}
		permutation.RandomInto(rng, cur)
		if err := k.sc.load(cur, -1, -1); err != nil {
			return nil, err
		}
		curC, curL := k.sc.contended(), k.sc.maxLoad()
		best.Evaluated++
		consider(curC, curL)
		for step := 0; step < s.Steps; step++ {
			if k.stop(1) {
				return finish(ctx.Err())
			}
			// Swap the destinations of two random sources.
			i, j := rng.Intn(s.Hosts), rng.Intn(s.Hosts)
			if i == j {
				continue
			}
			swapDst(cur, i, j)
			if err := k.sc.load(cur, i, j); err != nil {
				return nil, err
			}
			cc, cl := k.sc.contended(), k.sc.maxLoad()
			best.Evaluated++
			if cc > curC || (cc == curC && cl >= curL) {
				curC, curL = cc, cl
				consider(curC, curL)
			} else {
				swapDst(cur, i, j)
				k.sc.revert(i, j)
			}
		}
	}
	return finish(nil)
}

// swapDst exchanges the destinations of sources i ≠ j of a full pattern
// in place.
func swapDst(p *permutation.Permutation, i, j int) {
	di, dj := p.Dst(i), p.Dst(j)
	p.Remove(i)
	p.Remove(j)
	// Both destinations were just freed, so neither Add can fail.
	_ = p.Add(i, dj)
	_ = p.Add(j, di)
}
