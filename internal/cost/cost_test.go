package cost

import (
	"testing"

	"repro/internal/topology"
)

func TestTableIPaperValues(t *testing.T) {
	rows := PaperTableI()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper Table I (with the 42-port row corrected: the builder proves
	// 78 switches / 882 ports; the paper prints 88 / 884 — see
	// EXPERIMENTS.md T1).
	want := []struct {
		ports, n, nbSw, nbPorts, reSw, rePorts int
	}{
		{20, 4, 36, 80, 30, 200},
		{30, 5, 55, 150, 45, 450},
		{42, 6, 78, 252, 63, 882},
	}
	for i, w := range want {
		r := rows[i]
		if r.SwitchPorts != w.ports || r.N != w.n {
			t.Errorf("row %d: ports=%d n=%d", i, r.SwitchPorts, r.N)
		}
		if r.Nonblocking.Switches != w.nbSw || r.Nonblocking.Ports != w.nbPorts {
			t.Errorf("row %d nonblocking: %d switches %d ports, want %d/%d",
				i, r.Nonblocking.Switches, r.Nonblocking.Ports, w.nbSw, w.nbPorts)
		}
		if r.Rearrangeable.Switches != w.reSw || r.Rearrangeable.Ports != w.rePorts {
			t.Errorf("row %d rearrangeable: %d switches %d ports, want %d/%d",
				i, r.Rearrangeable.Switches, r.Rearrangeable.Ports, w.reSw, w.rePorts)
		}
		if !r.Nonblocking.Nonblocking || r.Rearrangeable.Nonblocking {
			t.Errorf("row %d: nonblocking flags wrong", i)
		}
	}
}

func TestTableIMatchesBuiltTopologies(t *testing.T) {
	// The cost formulas must agree with actually constructing the
	// networks.
	for _, n := range []int{2, 3, 4} {
		d := NonblockingFtree(n)
		f := topology.NewFoldedClos(n, n*n, n+n*n)
		if f.Switches() != d.Switches || f.Ports() != d.Ports {
			t.Errorf("n=%d: formula %d/%d vs built %d/%d", n, d.Switches, d.Ports, f.Switches(), f.Ports())
		}
		// Every switch's radix must not exceed the building block.
		for id := topology.NodeID(0); int(id) < f.Net.NumNodes(); id++ {
			if f.Net.Node(id).Kind != topology.Switch {
				continue
			}
			if r := f.Net.Radix(id); r > d.SwitchPorts {
				t.Errorf("n=%d: switch radix %d exceeds building block %d", n, r, d.SwitchPorts)
			}
		}
	}
	for _, N := range []int{4, 6, 20} {
		d, err := MPort2Tree(N)
		if err != nil {
			t.Fatal(err)
		}
		ft := topology.NewMPortNTree(N, 2)
		if ft.Switches() != d.Switches || ft.Hosts() != d.Ports {
			t.Errorf("FT(%d,2): formula %d/%d vs built %d/%d", N, d.Switches, d.Ports, ft.Switches(), ft.Hosts())
		}
	}
	for _, n := range []int{2, 3} {
		d := ThreeLevelNonblocking(n)
		tl := topology.NewMultiFtree(n, 3)
		if tl.Switches() != d.Switches || tl.Ports() != d.Ports {
			t.Errorf("ftree3(n=%d): formula %d/%d vs built %d/%d", n, d.Switches, d.Ports, tl.Switches(), tl.Ports())
		}
	}
}

func TestMultiLevelNonblockingDesign(t *testing.T) {
	// Agrees with the 2- and 3-level closed forms and the built topology.
	for _, n := range []int{2, 3, 4} {
		if d := MultiLevelNonblocking(n, 2); d.Switches != NonblockingFtree(n).Switches || d.Ports != NonblockingFtree(n).Ports {
			t.Errorf("n=%d levels=2: %+v", n, d)
		}
	}
	for _, n := range []int{2, 3} {
		if d := MultiLevelNonblocking(n, 3); d.Switches != ThreeLevelNonblocking(n).Switches || d.Ports != ThreeLevelNonblocking(n).Ports {
			t.Errorf("n=%d levels=3: %+v", n, d)
		}
	}
	d := MultiLevelNonblocking(2, 4)
	m := topology.NewMultiFtree(2, 4)
	if d.Switches != m.Switches() || d.Ports != m.Ports() {
		t.Errorf("levels=4: formula %d/%d vs built %d/%d", d.Switches, d.Ports, m.Switches(), m.Ports())
	}
	if d.SwitchPorts != 6 || !d.Nonblocking {
		t.Errorf("levels=4 metadata: %+v", d)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid params should panic")
			}
		}()
		MultiLevelNonblocking(2, 1)
	}()
}

func TestMPortNTreeDesign(t *testing.T) {
	d, err := MPortNTreeDesign(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Switches != 20 || d.Ports != 16 {
		t.Fatalf("FT(4,3) = %d/%d", d.Switches, d.Ports)
	}
	d, err = MPortNTreeDesign(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Switches != 1 || d.Ports != 8 {
		t.Fatalf("FT(8,1) = %d/%d", d.Switches, d.Ports)
	}
	if _, err := MPortNTreeDesign(5, 2); err == nil {
		t.Fatal("odd N accepted")
	}
	if _, err := MPortNTreeDesign(4, 0); err == nil {
		t.Fatal("levels=0 accepted")
	}
	if _, err := MPort2Tree(3); err == nil {
		t.Fatal("odd N accepted by MPort2Tree")
	}
}

func TestTableIRejectsBadRadix(t *testing.T) {
	if _, err := TableI([]int{21}); err == nil {
		t.Fatal("21 is not n+n²; should fail")
	}
}

func TestCostPerPort(t *testing.T) {
	d := Design{Switches: 36, Ports: 80}
	if got := d.CostPerPort(); got != 0.45 {
		t.Fatalf("cost/port = %v", got)
	}
	if (Design{}).CostPerPort() != 0 {
		t.Fatal("zero design cost/port should be 0")
	}
}

func TestScalingTableAndReplaceBottom(t *testing.T) {
	rows, err := ScalingTable([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		n := r.HostsPerSwitch
		// Nonblocking 3-level reaches more ports than 2-level.
		if r.Nonblocking3L.Ports <= r.Nonblocking2L.Ports {
			t.Errorf("n=%d: 3-level ports %d not above 2-level %d", n, r.Nonblocking3L.Ports, r.Nonblocking2L.Ports)
		}
		// Rearrangeable networks reach more ports for the same switches —
		// the price of nonblocking behaviour.
		if r.Rearrangeable2L.Ports <= r.Nonblocking2L.Ports {
			t.Errorf("n=%d: FT(N,2) ports %d should exceed nonblocking %d", n, r.Rearrangeable2L.Ports, r.Nonblocking2L.Ports)
		}
		// Theorem 1 consequence: replacing bottom switches gives the same
		// port count as plain 2-level at far higher cost.
		if r.ReplaceBottomVariant.Ports != r.Nonblocking2L.Ports {
			t.Errorf("n=%d: replace-bottom ports %d != 2-level %d", n, r.ReplaceBottomVariant.Ports, r.Nonblocking2L.Ports)
		}
		if r.ReplaceBottomVariant.Switches <= r.Nonblocking2L.Switches {
			t.Errorf("n=%d: replace-bottom not more expensive", n)
		}
		// Replace-top (the 3-level design) has strictly better
		// cost-per-port than replace-bottom.
		if r.Nonblocking3L.CostPerPort() >= r.ReplaceBottomVariant.CostPerPort() {
			t.Errorf("n=%d: replace-top cost/port %.3f not below replace-bottom %.3f",
				n, r.Nonblocking3L.CostPerPort(), r.ReplaceBottomVariant.CostPerPort())
		}
	}
	if _, err := ThreeLevelReplaceBottom(0); err == nil {
		t.Fatal("invalid n accepted")
	}
}

func TestPaperAsymptoticClaims(t *testing.T) {
	// §IV.A Discussion: roughly 2N N-port switches support ~N^(3/2)
	// nonblocking ports (N = n+n²).
	for _, n := range []int{4, 8, 16} {
		d := NonblockingFtree(n)
		N := float64(d.SwitchPorts)
		if float64(d.Switches) > 2*N || float64(d.Switches) < 1.5*N {
			t.Errorf("n=%d: switches %d not ~2N (N=%v)", n, d.Switches, N)
		}
		// Ports = n³+n² = n·N ≈ N^1.5 within a small constant.
		ratio := float64(d.Ports) / (N * float64(n))
		if ratio != 1 {
			t.Errorf("n=%d: ports should equal n·N exactly", n)
		}
	}
}
