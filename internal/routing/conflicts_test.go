package routing_test

import (
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// pairSets is the test oracle for the conflict classes: every link's list
// of pair indices s*hosts+d, built from the table's link spans.
func pairSets(tab *routing.RouteTable) [][]int {
	sets := make([][]int, tab.NumLinks())
	for s := 0; s < tab.Hosts(); s++ {
		for d := 0; d < tab.Hosts(); d++ {
			for _, l := range tab.PairLinks(s, d) {
				sets[l] = append(sets[l], s*tab.Hosts()+d)
			}
		}
	}
	return sets
}

// conflicting reports whether a pair set has two distinct sources and two
// distinct destinations: the only links Lemma 1 lets carry two pairs.
func conflicting(set []int, hosts int) bool {
	srcs, dsts := map[int]bool{}, map[int]bool{}
	for _, p := range set {
		srcs[p/hosts], dsts[p%hosts] = true, true
	}
	return len(srcs) >= 2 && len(dsts) >= 2
}

// TestRouteTableClassesMatchPairSets checks the quotient against per-link
// pair lists on a router zoo: a link has a class exactly when its pair set
// is not a Lemma-1 star, two links share a class exactly when their pair
// sets are equal, class weights count the links, and each pair's class
// span holds each class its link span crosses, once.
func TestRouteTableClassesMatchPairSets(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := routing.NewKSpray(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	folded := topology.NewFoldedClos(2, 3, 3)
	tr := topology.NewMPortNTree(4, 2)
	for _, c := range []struct {
		r     routing.PairLinkAppender
		hosts int
	}{
		{paper, f.Ports()},
		{routing.NewDestMod(f), f.Ports()},
		{routing.NewSourceMod(f), f.Ports()},
		{k2, f.Ports()},
		{routing.NewFullSpray(folded), folded.Ports()},
		{routing.NewPaperDeterministicFolded(folded), folded.Ports()},
		{routing.NewRandomFixed(topology.NewFoldedClos(3, 2, 3), 5), 9},
		{routing.NewMNTDestMod(tr), tr.Hosts()},
	} {
		tab, err := routing.BuildRouteTable(c.r, c.hosts)
		if err != nil {
			t.Fatalf("%s: %v", c.r.Name(), err)
		}
		sets := pairSets(tab)
		offs, classes, classWeights := tab.ClassSpans()
		weights := make([]int, len(classWeights))
		setOf := make([][]int, len(classWeights))
		for l, set := range sets {
			cl := tab.LinkClass(topology.LinkID(l))
			if want := conflicting(set, c.hosts); (cl >= 0) != want {
				t.Fatalf("%s link %d (pairs %v): class %d, conflicting %t", c.r.Name(), l, set, cl, want)
			}
			if cl < 0 {
				continue
			}
			weights[cl]++
			if setOf[cl] == nil {
				setOf[cl] = set
			} else if !slices.Equal(setOf[cl], set) {
				t.Fatalf("%s class %d: link %d pairs %v, class pairs %v", c.r.Name(), cl, l, set, setOf[cl])
			}
		}
		for cl := range weights {
			if weights[cl] != int(classWeights[cl]) {
				t.Fatalf("%s class %d: weight %d, %d links", c.r.Name(), cl, classWeights[cl], weights[cl])
			}
			for other := range cl {
				if slices.Equal(setOf[cl], setOf[other]) {
					t.Fatalf("%s: classes %d and %d have one pair set", c.r.Name(), other, cl)
				}
			}
		}
		entries := 0
		for s := 0; s < c.hosts; s++ {
			for d := 0; d < c.hosts; d++ {
				var want []int32
				for _, l := range tab.PairLinks(s, d) {
					if cl := int32(tab.LinkClass(l)); cl >= 0 && !slices.Contains(want, cl) {
						want = append(want, cl)
					}
				}
				var got []int32
				if offs != nil {
					i := s*c.hosts + d
					got = slices.Clone(classes[offs[i]:offs[i+1]])
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s pair %d->%d: classes %v, want %v", c.r.Name(), s, d, got, want)
				}
				entries += len(got)
			}
		}
		if entries != len(classes) {
			t.Fatalf("%s: %d class entries, %d stored", c.r.Name(), entries, len(classes))
		}
	}
}

// TestRouteTableClassSpanSizes pins how far the quotient shrinks the
// spans the delta engine walks on the benchmark's fabrics, and checks that
// the class weights sum to the number of links whose pair set is not a
// Lemma-1 star. A nonblocking routing keeps no class at all.
func TestRouteTableClassSpanSizes(t *testing.T) {
	sym := topology.NewFoldedClos(4, 8, 3)
	n10 := topology.NewFoldedClos(2, 4, 5)
	tableI := topology.NewFoldedClos(4, 16, 20)
	paper, err := routing.NewPaperDeterministic(tableI)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                  string
		r                     routing.PairLinkAppender
		hosts                 int
		entries, classEntries int
	}{
		{"spray ftree(4+8,3)", routing.NewFullSpray(sym), 12, 1800, 192},
		{"spray ftree(2+4,5)", routing.NewFullSpray(n10), 10, 820, 160},
		{"dest-mod ftree(3+3,3)", routing.NewDestMod(topology.NewFoldedClos(3, 3, 3)), 9, 252, 54},
		{"dest-mod ftree(3+9,3)", routing.NewDestMod(topology.NewFoldedClos(3, 9, 3)), 9, 252, 0},
		{"paper ftree(4+16,20)", paper, 80, 24800, 0},
	} {
		tab, err := routing.BuildRouteTable(c.r, c.hosts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, classes, classWeights := tab.ClassSpans()
		if tab.Entries() != c.entries || len(classes) != c.classEntries {
			t.Errorf("%s: %d link entries, %d class entries; want %d, %d",
				c.name, tab.Entries(), len(classes), c.entries, c.classEntries)
		}
		shared := 0
		for _, set := range pairSets(tab) {
			if conflicting(set, c.hosts) {
				shared++
			}
		}
		weights := 0
		for _, w := range classWeights {
			weights += int(w)
		}
		if weights != shared {
			t.Errorf("%s: class weights sum to %d, %d links can carry two pairs", c.name, weights, shared)
		}
		if c.classEntries == 0 && (len(classWeights) != 0 || shared != 0) {
			t.Errorf("%s: %d classes over %d shared links, want none", c.name, len(classWeights), shared)
		}
	}
}
