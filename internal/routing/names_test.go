package routing_test

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestRouterNames pins every scheme's reported name — these strings appear
// in experiment tables, reports and CLI output, so renames must be
// deliberate.
func TestRouterNames(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	spray, err := routing.NewKSpray(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	pmp, err := routing.NewPaperMultipath(f)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	ff := &routing.NonblockingAdaptive{F: f, C: ad.C, FirstFit: true}
	mnt := topology.NewMPortNTree(4, 2)
	mntSpray, err := routing.NewMNTSpray(mnt, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tl := topology.NewThreeLevelFtree(2, 12)
	ml := topology.NewMultiFtree(2, 2)
	want := map[string]interface{ Name() string }{
		"paper-deterministic":             paper,
		"paper-deterministic-folded(m=4)": routing.NewPaperDeterministicFolded(f),
		"dest-mod":                        routing.NewDestMod(f),
		"source-mod":                      routing.NewSourceMod(f),
		"dest-switch-mod":                 routing.NewDestSwitchMod(f),
		"random-fixed":                    routing.NewRandomFixed(f, 1),
		"full-spray":                      routing.NewFullSpray(f),
		"spray-2":                         spray,
		"paper-multipath-row":             pmp,
		"nonblocking-adaptive":            ad,
		"nonblocking-adaptive-firstfit":   ff,
		"greedy-local":                    routing.NewGreedyLocal(f),
		"global-rearrangeable":            routing.NewGlobalRearrangeable(f),
		"mnt-dest-mod":                    routing.NewMNTDestMod(mnt),
		"mnt-random-fixed":                routing.NewMNTRandomFixed(mnt, 1),
		"mnt-spray-2":                     mntSpray,
		"paper-three-level":               routing.NewThreeLevelPaper(tl),
		"paper-multi-level":               routing.NewMultiLevelPaper(ml),
		"crossbar":                        routing.NewCrossbarRouter(topology.NewCrossbar(4)),
		"benes-looping":                   routing.NewBenesLooping(topology.NewBenes(2)),
		"kary-dest-mod":                   routing.NewKAryDestMod(topology.NewKAryNTree(2, 2)),
		"kary-random-fixed":               routing.NewKAryRandomFixed(topology.NewKAryNTree(2, 2), 1),
	}
	for name, r := range want {
		if got := r.Name(); got != name {
			t.Errorf("Name() = %q, want %q", got, name)
		}
	}
	spareFabric := topology.NewFoldedClos(2, 5, 4)
	none, err := topology.FailureSet{}.View(spareFabric)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := routing.NewSparedDeterministicView(spareFabric, none)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name() != "paper-deterministic-spared" {
		t.Error("spared name")
	}
}
