// Package analysis judges routing assignments against the paper's
// definitions: link-level contention (Definition 2), the Lemma-1
// one-source-or-one-destination link predicate that characterizes
// nonblocking single-path deterministic routing, exhaustive and randomized
// nonblocking verification sweeps, the Lemma-2 maximum-pairs-per-root
// search, and Monte-Carlo blocking probability estimation.
package analysis

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Report is the contention analysis of one routed pattern.
type Report struct {
	// Assignment is the analyzed routing output.
	Assignment *routing.Assignment
	// LinkPairs maps every loaded link to the indices (into
	// Assignment.Pairs) of the SD pairs whose path sets traverse it.
	LinkPairs map[topology.LinkID][]int
	// Contended lists links carrying two or more SD pairs, ascending.
	Contended []topology.LinkID
	// MaxLoad is the largest number of SD pairs sharing one link.
	MaxLoad int
}

// Check computes the link loads of an assignment. A link is contended when
// packets of two different SD pairs of the pattern may cross it
// (Definition 2); for multipath assignments every path in a pair's set
// counts, per the §IV.B timing argument. Check is the one-shot wrapper
// around Checker; loops over many patterns should reuse one Checker
// instead, which does O(1) allocations per pattern.
func Check(a *routing.Assignment) *Report {
	c := NewChecker(a.Net)
	c.Analyze(a)
	return c.Report()
}

// HasContention reports whether any link carries two or more SD pairs.
func (r *Report) HasContention() bool { return len(r.Contended) > 0 }

// ContentionError formats the first contended link with its pairs, or
// returns nil.
func (r *Report) ContentionError() error {
	if !r.HasContention() {
		return nil
	}
	l := r.Contended[0]
	lk := r.Assignment.Net.Link(l)
	msg := fmt.Sprintf("link %d (%s -> %s) carries %d SD pairs:",
		l, r.Assignment.Net.Node(lk.From).Label, r.Assignment.Net.Node(lk.To).Label, len(r.LinkPairs[l]))
	for _, i := range r.LinkPairs[l] {
		msg += fmt.Sprintf(" %d->%d", r.Assignment.Pairs[i].Src, r.Assignment.Pairs[i].Dst)
	}
	return fmt.Errorf("analysis: %s", msg)
}

// SweepResult summarizes a nonblocking verification sweep over many
// permutations.
type SweepResult struct {
	// Tested counts patterns routed.
	Tested int
	// Blocked counts patterns with contention.
	Blocked int
	// FirstBlocked is a clone of the first contended pattern, nil if all
	// passed.
	FirstBlocked *permutation.Permutation
	// MaxLinkLoad is the worst per-link SD-pair count observed.
	MaxLinkLoad int
	// RouteErr records the first routing failure (e.g. adaptive routing
	// running out of top switches); sweeps stop at routing failures.
	RouteErr error
}

// Nonblocking reports whether every tested pattern routed without
// contention.
func (s *SweepResult) Nonblocking() bool { return s.Blocked == 0 && s.RouteErr == nil }

// SweepRandomCtx routes trials seeded random full permutations, trials/2
// random partial ones, and the structured patterns most hostile to
// fat-trees — switch shifts, local rotations, transpose and bit-reversal
// where the host count allows — and checks contention. It is the sampled
// counterpart of Sweep for networks past the factorial wall. ctx is
// polled between patterns (each pattern routes all its pairs, so the
// check is off the per-pair hot path) and a fired ctx stops the sweep,
// returning the partial result with ctx.Err().
//
// The engine is newEngine's choice for trials patterns: a router with
// pattern-independent routes is scored on a route table when hosts ≤
// trials and the table fits its memory budget, else every pattern is
// routed from scratch. The result is the same either way, routing errors
// included.
func SweepRandomCtx(ctx context.Context, r routing.Router, hosts, trials int, seed int64) (*SweepResult, error) {
	if err := ctx.Err(); err != nil {
		return &SweepResult{}, err
	}
	return sweepRandom(ctx, newEngine(r, hosts, trials), hosts, trials, seed)
}

// sweepRandom is SweepRandomCtx on a given engine.
func sweepRandom(ctx context.Context, e engine, hosts, trials int, seed int64) (*SweepResult, error) {
	res := &SweepResult{}
	k := e.kernel(ctx, res, false, nil)
	k.mask = 0 // each pattern routes all its pairs: poll ctx every pattern
	rng := rand.New(rand.NewSource(seed))
	// One pattern and one scratch serve every random trial: the kernel
	// never retains its argument (FirstBlocked is a clone), so refilling in
	// place keeps the per-trial loop allocation-free while consuming rng
	// exactly as the allocating generators would.
	p := permutation.New(hosts)
	scratch := permutation.NewPatternScratch(hosts)
	for i := 0; i < trials; i++ {
		permutation.RandomInto(rng, p)
		if !k.visit(p, -1, -1) {
			return res, k.finish()
		}
	}
	for i := 0; i < trials/2; i++ {
		permutation.RandomPartialInto(rng, p, 0.25+rng.Float64()/2, scratch)
		if !k.visit(p, -1, -1) {
			return res, k.finish()
		}
	}
	structured := make([]*permutation.Permutation, 0, 16)
	for shift := 1; shift < hosts && shift <= 8; shift++ {
		structured = append(structured, permutation.Shift(hosts, shift))
	}
	if hosts > 0 && hosts&(hosts-1) == 0 {
		structured = append(structured, permutation.BitReversal(hosts))
	}
	for d := 2; d*d <= hosts; d++ {
		if hosts%d == 0 {
			structured = append(structured, permutation.Transpose(d, hosts/d))
		}
	}
	for _, q := range append(structured, permutation.Neighbor(hosts)) {
		if !k.visit(q, -1, -1) {
			break
		}
	}
	return res, k.finish()
}

// BlockingProbability estimates, over trials seeded random full
// permutations, the fraction that suffer contention under the router, and
// the mean of the worst per-link load — the blocking-probability metric
// the related work optimizes ([6], [9], [15], [17]).
func BlockingProbability(r routing.Router, hosts, trials int, seed int64) (blockFrac, meanMaxLoad float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	c := NewChecker(nil)
	blocked, loadSum := 0, 0
	for i := 0; i < trials; i++ {
		p := permutation.Random(rng, hosts)
		if rerr := c.AnalyzePattern(r, p); rerr != nil {
			return 0, 0, rerr
		}
		if c.HasContention() {
			blocked++
		}
		loadSum += c.MaxLoad()
	}
	if trials == 0 {
		return 0, 0, nil
	}
	return float64(blocked) / float64(trials), float64(loadSum) / float64(trials), nil
}
