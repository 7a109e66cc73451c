package routing

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// planOracle is the map-based Fig. 4 scheduler that Plan's flat-array form
// replaced, kept verbatim as the reference: pairs grouped by source switch
// in a map, and per partition a key → first-pair map plus a routed set.
func planOracle(r *NonblockingAdaptive, p *permutation.Permutation) (tops []int, pairs []permutation.Pair, confs int) {
	pairs = p.Pairs()
	tops = make([]int, len(pairs))
	n := r.F.N
	bySrc := make(map[int][]int)
	for i, pr := range pairs {
		tops[i] = -1
		if pr.Src != pr.Dst && pr.Src/n != pr.Dst/n {
			v := pr.Src / n
			bySrc[v] = append(bySrc[v], i)
		}
	}
	for _, rem := range bySrc {
		conf := 0
		for len(rem) > 0 {
			usedPart := make([]bool, r.C+1)
			for len(rem) > 0 {
				bestQ, bestKeys := -1, map[int]int(nil)
				for q := 0; q <= r.C; q++ {
					if usedPart[q] {
						continue
					}
					keys := make(map[int]int, len(rem))
					for _, idx := range rem {
						k := r.PartitionKey(q, pairs[idx].Dst)
						if _, dup := keys[k]; !dup {
							keys[k] = idx
						}
					}
					if bestQ == -1 || len(keys) > len(bestKeys) {
						bestQ, bestKeys = q, keys
					}
					if r.FirstFit {
						break
					}
				}
				if bestQ == -1 {
					break
				}
				routed := make(map[int]bool, len(bestKeys))
				for key, idx := range bestKeys {
					tops[idx] = r.topIndex(conf, bestQ, key)
					routed[idx] = true
				}
				usedPart[bestQ] = true
				next := rem[:0]
				for _, idx := range rem {
					if !routed[idx] {
						next = append(next, idx)
					}
				}
				rem = next
			}
			conf++
		}
		confs = max(confs, conf)
	}
	return tops, pairs, confs
}

// checkPlanMatchesOracle fails the test when Plan and the map oracle
// disagree on p in tops, pairs or configurations.
func checkPlanMatchesOracle(t *testing.T, r *NonblockingAdaptive, p *permutation.Permutation) {
	t.Helper()
	tops, pairs, confs, err := r.Plan(p)
	if err != nil {
		t.Fatalf("%s: Plan(%s): %v", r.Name(), p, err)
	}
	wantTops, wantPairs, wantConfs := planOracle(r, p)
	if confs != wantConfs || !slices.Equal(tops, wantTops) || !slices.Equal(pairs, wantPairs) {
		t.Fatalf("%s: Plan(%s) = tops %v, %d confs; oracle %v, %d confs", r.Name(), p, tops, confs, wantTops, wantConfs)
	}
}

// TestPlanMatchesMapOracle pins the flat-array Plan to the map-based
// scheduler it replaced, greedy and first-fit: every permutation of
// ftree(2+m, 4) (c = 2), and seeded random full and partial patterns on
// n = 3, r = 8 (c = 2) and on n = 2, r = 9 (c = 4, so configurations hold
// five partitions). Plan ignores m, so one m serves every fabric.
func TestPlanMatchesMapOracle(t *testing.T) {
	for _, firstFit := range []bool{false, true} {
		r, err := NewNonblockingAdaptive(topology.NewFoldedClos(2, 4, 4))
		if err != nil {
			t.Fatal(err)
		}
		r.FirstFit = firstFit
		permutation.EnumerateFull(r.F.Ports(), func(p *permutation.Permutation) bool {
			checkPlanMatchesOracle(t, r, p)
			return true
		})
		for _, shape := range [][2]int{{3, 8}, {2, 9}} {
			r, err := NewNonblockingAdaptive(topology.NewFoldedClos(shape[0], 1, shape[1]))
			if err != nil {
				t.Fatal(err)
			}
			r.FirstFit = firstFit
			rng := rand.New(rand.NewSource(int64(shape[0]*100 + shape[1])))
			p := permutation.New(r.F.Ports())
			var sc permutation.PatternScratch
			for trial := 0; trial < 500; trial++ {
				if trial%2 == 0 {
					permutation.RandomInto(rng, p)
				} else {
					permutation.RandomPartialInto(rng, p, rng.Float64(), &sc)
				}
				checkPlanMatchesOracle(t, r, p)
			}
		}
	}
}
