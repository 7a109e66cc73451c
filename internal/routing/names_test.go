package routing_test

import (
	"errors"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// zooRouter is one entry of the router zoo: a router and the host count
// of the network it routes on.
type zooRouter struct {
	r     routing.Router
	hosts int
}

// routerZoo builds one router of every scheme on a small network, keyed by
// the name it must report.
func routerZoo(t *testing.T) map[string]zooRouter {
	t.Helper()
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
	ml := topology.NewMultiFtree(2, 2)
	hosts := f.Ports()
	return map[string]zooRouter{
		"paper-deterministic":             {paper, hosts},
		"paper-deterministic-folded(m=4)": {routing.NewPaperDeterministicFolded(f), hosts},
		"dest-mod":                        {routing.NewDestMod(f), hosts},
		"source-mod":                      {routing.NewSourceMod(f), hosts},
		"dest-switch-mod":                 {routing.NewDestSwitchMod(f), hosts},
		"random-fixed":                    {routing.NewRandomFixed(f, 1), hosts},
		"full-spray":                      {routing.NewFullSpray(f), hosts},
		"spray-2":                         {spray, hosts},
		"paper-multipath-row":             {pmp, hosts},
		"nonblocking-adaptive":            {ad, hosts},
		"nonblocking-adaptive-firstfit":   {ff, hosts},
		"greedy-local":                    {routing.NewGreedyLocal(f), hosts},
		"global-rearrangeable":            {routing.NewGlobalRearrangeable(f), hosts},
		"mnt-dest-mod":                    {routing.NewMNTDestMod(mnt), mnt.Hosts()},
		"mnt-random-fixed":                {routing.NewMNTRandomFixed(mnt, 1), mnt.Hosts()},
		"mnt-spray-2":                     {mntSpray, mnt.Hosts()},
		"paper-multi-level":               {routing.NewMultiLevelPaper(ml), ml.Ports()},
		"crossbar":                        {routing.NewCrossbarRouter(topology.NewCrossbar(4)), 4},
		"benes-looping":                   {routing.NewBenesLooping(topology.NewBenes(2)), 4},
	}
}

// TestRouterNames pins every scheme's reported name — these strings appear
// in experiment tables, reports and CLI output, so renames must be
// deliberate.
func TestRouterNames(t *testing.T) {
	for name, z := range routerZoo(t) {
		if got := z.r.Name(); got != name {
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

// TestNewFtreeRouterNames pins the CLI/service scheme vocabulary: every
// name builds the router it names (spray widths included), a constructor
// failure comes back as an error, and an unknown name is ErrUnknownScheme.
func TestNewFtreeRouterNames(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	for _, c := range []struct {
		scheme string
		width  int
		want   string
	}{
		{"paper", 0, "paper-deterministic"},
		{"paper-folded", 0, "paper-deterministic-folded(m=4)"},
		{"dest-mod", 0, "dest-mod"},
		{"source-mod", 0, "source-mod"},
		{"dest-switch-mod", 0, "dest-switch-mod"},
		{"random-fixed", 0, "random-fixed"},
		{"adaptive", 0, "nonblocking-adaptive"},
		{"greedy-local", 0, "greedy-local"},
		{"global", 0, "global-rearrangeable"},
		{"spray", 0, "full-spray"},
		{"spray", 2, "spray-2"},
		{"spray", 4, "full-spray"},
	} {
		r, err := routing.NewFtreeRouter(f, c.scheme, c.width, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.scheme, err)
		}
		if r.Name() != c.want {
			t.Errorf("%s width %d: built %q, want %q", c.scheme, c.width, r.Name(), c.want)
		}
	}
	if r, err := routing.NewFtreeRouter(topology.NewFoldedClos(2, 3, 5), "paper", 0, 1); err == nil || r != nil {
		t.Errorf("paper with m < n²: router %v, err %v", r, err)
	}
	if _, err := routing.NewFtreeRouter(f, "nosuch", 0, 1); !errors.Is(err, routing.ErrUnknownScheme) {
		t.Errorf("unknown scheme: err %v", err)
	}
}
