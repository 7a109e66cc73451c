package analysis

import (
	"context"
	"errors"

	"repro/internal/permutation"
	"repro/internal/routing"
)

// Rung names the engine that decides a verdict. Lemma 1 decides
// nonblocking exactly for single-path deterministic routing; adaptive
// routing has no such test, so it is swept exhaustively on small fabrics
// and sampled beyond. Decide is the one place that rule is written.
type Rung uint8

const (
	RungAuto       Rung = iota // a DecideSpec.Rung only: Decide picks the rung
	RungLemma1                 // CheckLemma1AllPairs, plus BlockingWitness when blocking
	RungExhaustive             // Sweep under DecideSpec.Sweep
	RungRandom                 // SweepRandomCtx with DecideSpec.Trials and Seed
)

// DecideSpec configures Decide: Rung forces one rung (RungAuto picks it),
// MaxExhaustive is the largest host count RungAuto sweeps exhaustively,
// Trials and Seed drive the random rung and Sweep the exhaustive one.
type DecideSpec struct {
	Rung                  Rung
	MaxExhaustive, Trials int
	Seed                  int64
	Sweep                 Spec
}

// Decision is the rung that decided and its raw result: Lemma1, with
// Witness when blocking, or Sweep, with Sym when the exhaustive rung was
// asked for a symmetry reduction (Sym.Reason says why it fell back). A
// routing failure mid-sweep is Sweep.RouteErr, not an error of Decide.
type Decision struct {
	Rung    Rung
	Lemma1  *Lemma1Result
	Witness *permutation.Permutation
	Sweep   *SweepResult
	Sym     *SymStats
}

// ErrNotSinglePath is Decide's error when RungLemma1 is forced on a router
// that is not a routing.PairRouter.
var ErrNotSinglePath = errors.New("analysis: Lemma 1 needs a single-path deterministic routing")

// Decide decides whether r is nonblocking on hosts endpoints. RungAuto
// picks Lemma 1 for a routing.PairRouter, else the exhaustive sweep up to
// s.MaxExhaustive hosts, else the random sweep. The error is a Lemma-1
// routing error, ErrNotSinglePath, a rejected sweep spec, or ctx.Err().
func Decide(ctx context.Context, r routing.Router, hosts int, s DecideSpec) (d Decision, err error) {
	d.Rung = s.Rung
	if pr, ok := r.(routing.PairRouter); ok && (d.Rung == RungAuto || d.Rung == RungLemma1) {
		d.Rung = RungLemma1
		if d.Lemma1, err = CheckLemma1AllPairs(pr, hosts); err == nil && !d.Lemma1.Nonblocking {
			d.Witness, err = BlockingWitness(d.Lemma1, hosts)
		}
		return d, err
	}
	switch {
	case d.Rung == RungLemma1:
		return d, ErrNotSinglePath
	case d.Rung == RungAuto && hosts <= s.MaxExhaustive:
		d.Rung = RungExhaustive
	case d.Rung == RungAuto:
		d.Rung = RungRandom
	}
	if d.Rung == RungExhaustive {
		d.Sweep, d.Sym, err = Sweep(ctx, r, hosts, s.Sweep)
	} else {
		d.Sweep, err = SweepRandomCtx(ctx, r, hosts, s.Trials, s.Seed)
	}
	return d, err
}
