package routing_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// randomPartial draws a random partial permutation over n endpoints in
// which each endpoint sends with probability density.
func randomPartial(rng *rand.Rand, n int, density float64) *permutation.Permutation {
	p := permutation.New(n)
	permutation.RandomPartialInto(rng, p, density, &permutation.PatternScratch{})
	return p
}

// Property: the Theorem-3 router's path for any pair has the canonical
// structure — length 0 (self), 2 (intra-switch) or 4 (via top switch
// (i, j) = (s mod n)·n + d mod n) — and is always valid in the graph.
func TestQuickPaperRouterPathStructure(t *testing.T) {
	f := topology.NewFoldedClos(3, 9, 7)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b uint16) bool {
		s := int(a) % f.Ports()
		d := int(b) % f.Ports()
		p, err := r.PathFor(s, d)
		if err != nil {
			return false
		}
		switch {
		case s == d:
			return p.Len() == 0
		case s/f.N == d/f.N:
			return p.Len() == 2 && p.Valid(f.Net)
		default:
			if p.Len() != 4 || !p.Valid(f.Net) {
				return false
			}
			wantTop := f.Top((s%f.N)*f.N + d%f.N)
			return f.Net.Link(p.Links[1]).To == wantTop
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: NONBLOCKINGADAPTIVE's partition keys always lie in [0, n), and
// two destinations in one switch never share the full key vector (the
// Class-DIFF precondition).
func TestQuickAdaptivePartitionKeys(t *testing.T) {
	f := topology.NewFoldedClos(4, 48, 16)
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b uint16) bool {
		d1 := int(a) % f.Ports()
		d2 := int(b) % f.Ports()
		for q := 0; q <= ad.C; q++ {
			k1 := ad.PartitionKey(q, d1)
			if k1 < 0 || k1 >= f.N {
				return false
			}
		}
		// Distinct destinations in one switch differ in at least one key.
		if d1 != d2 && d1/f.N == d2/f.N {
			same := true
			for q := 0; q <= ad.C; q++ {
				if ad.PartitionKey(q, d1) != ad.PartitionKey(q, d2) {
					same = false
					break
				}
			}
			if same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any random pattern, the adaptive plan assigns every
// cross-switch pair a top switch consistent with its partition key: the
// in-partition offset equals the key of the destination.
func TestQuickAdaptivePlanConsistency(t *testing.T) {
	f := topology.NewFoldedClos(3, 36, 9)
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPartial(rng, f.Ports(), 0.7)
		tops, pairs, confs, err := ad.Plan(p)
		if err != nil {
			return false
		}
		if confs < 0 {
			return false
		}
		block := (ad.C + 1) * f.N
		for i, pr := range pairs {
			if tops[i] < 0 {
				continue
			}
			within := tops[i] % block
			q := within / f.N
			key := within % f.N
			if ad.PartitionKey(q, pr.Dst) != key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the global edge-coloring router never uses more colors than
// the pattern's switch-level degree, for any partial pattern.
func TestQuickGlobalColorsWithinDegree(t *testing.T) {
	f := topology.NewFoldedClos(3, 3, 5)
	g := routing.NewGlobalRearrangeable(f)
	prop := func(seed int64, dens uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPartial(rng, f.Ports(), float64(dens%101)/100)
		a, err := g.Route(p)
		if err != nil {
			return false // with m = n this should never fail
		}
		return !analysis.Check(a).HasContention()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestTableILargestExact verifies the biggest Table-I network exactly —
// ftree(6+36, 42), 252 hosts, 63,252 routed SD pairs — with both the
// sequential and parallel engines agreeing.
func TestTableILargestExact(t *testing.T) {
	f := topology.NewFoldedClos(6, 36, 42)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.CheckLemma1AllPairs(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatal("Table-I flagship network not nonblocking")
	}
	views, err := analysis.LinkViews(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	// Every trunk link of a complete all-pairs routing carries exactly
	// r−1 = 41 SD pairs (Fig. 3 accounting at full scale).
	for v := 0; v < f.R; v++ {
		for tt := 0; tt < f.M; tt++ {
			view := views[f.UpLink(v, tt)]
			if view == nil || len(view.Pairs) != f.R-1 {
				t.Fatalf("uplink (%d,%d) carries %v pairs, want %d", v, tt, view, f.R-1)
			}
		}
	}
}
