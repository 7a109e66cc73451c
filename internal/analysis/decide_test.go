package analysis

import (
	"context"
	"errors"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestDecideRungs pins the three-rung rule and the forced rungs: Lemma 1
// for a single-path router, the exhaustive sweep up to MaxExhaustive hosts
// for any other, the random sweep beyond, and ErrNotSinglePath when Lemma 1
// is forced on a router it cannot decide.
func TestDecideRungs(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4) // 8 hosts
	spray, destMod := routing.NewFullSpray(f), routing.NewDestMod(f)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		r    routing.Router
		s    DecideSpec
		want Rung
	}{
		{"auto single-path", destMod, DecideSpec{MaxExhaustive: 8}, RungLemma1},
		{"auto small", spray, DecideSpec{MaxExhaustive: 8}, RungExhaustive},
		{"auto large", spray, DecideSpec{MaxExhaustive: 7, Trials: 20, Seed: 1}, RungRandom},
		{"forced exhaustive", destMod, DecideSpec{Rung: RungExhaustive}, RungExhaustive},
		{"forced random", destMod, DecideSpec{Rung: RungRandom, Trials: 20, Seed: 1}, RungRandom},
	} {
		d, err := Decide(ctx, c.r, f.Ports(), c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.Rung != c.want || (d.Rung == RungLemma1) != (d.Lemma1 != nil) || (d.Rung == RungLemma1) == (d.Sweep != nil) {
			t.Fatalf("%s: decision %+v, want rung %d", c.name, d, c.want)
		}
	}
	d, err := Decide(ctx, destMod, f.Ports(), DecideSpec{})
	if err != nil || d.Witness == nil || d.Lemma1.Nonblocking {
		t.Fatalf("dest-mod: decision %+v (%v), want a blocking witness", d, err)
	}
	if _, err := Decide(ctx, spray, f.Ports(), DecideSpec{Rung: RungLemma1}); !errors.Is(err, ErrNotSinglePath) {
		t.Fatalf("forced Lemma 1 on spray: error %v, want ErrNotSinglePath", err)
	}
	d, err = Decide(ctx, spray, f.Ports(), DecideSpec{Rung: RungExhaustive, Sweep: Spec{SymBlock: 2}})
	if err != nil || d.Sym == nil {
		t.Fatalf("sym exhaustive: decision %+v (%v), want SymStats", d, err)
	}
}
