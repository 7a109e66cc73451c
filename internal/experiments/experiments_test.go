package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTableIExperiment(t *testing.T) {
	res := TableI()
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"36", "80", "30", "200", "55", "150", "78", "252", "63", "882"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "paper prints 88") {
		t.Error("typo note missing")
	}
}

func TestTheorem3Experiment(t *testing.T) {
	res, err := Theorem3([][2]int{{2, 5}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Nonblocking {
			t.Errorf("n=%d r=%d: not nonblocking", row.N, row.R)
		}
		if !row.TightBlocks || row.Witness == "" {
			t.Errorf("n=%d r=%d: tightness not demonstrated", row.N, row.R)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "true") {
		t.Error("render missing verdicts")
	}
}

func TestLemma2Experiment(t *testing.T) {
	res := Lemma2([]int{1, 2}, []int{3, 5})
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.WitnessOK {
			t.Errorf("n=%d r=%d: witness failed", row.N, row.R)
		}
		if row.Exact > row.Cap {
			t.Errorf("n=%d r=%d: exact %d above cap %d", row.N, row.R, row.Exact, row.Cap)
		}
		if row.R >= 2*row.N+1 && !row.Tight {
			t.Errorf("n=%d r=%d: r(r−1) branch should be tight", row.N, row.R)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "regime") {
		t.Error("render incomplete")
	}
}

func TestTheorem1Experiment(t *testing.T) {
	res := Theorem1([]int{2, 3})
	for _, row := range res.Rows {
		if row.Ports > row.Bound {
			t.Errorf("n=%d r=%d: ports %d above bound %d", row.N, row.R, row.Ports, row.Bound)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "bound") {
		t.Error("render incomplete")
	}
}

func TestAdaptiveExperiment(t *testing.T) {
	res, err := Adaptive([]int{4, 6}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.MeasuredRandom < 1 || row.MeasuredAdversarial < 1 {
			t.Errorf("n=%d: measurements missing", row.N)
		}
		if row.MeasuredRandom > row.SimpleBound {
			t.Errorf("n=%d: measured %d above the simple worst-case bound %d", row.N, row.MeasuredRandom, row.SimpleBound)
		}
		if row.FirstFit < row.MeasuredAdversarial {
			t.Errorf("n=%d: first-fit %d beat greedy %d on the adversarial pattern", row.N, row.FirstFit, row.MeasuredAdversarial)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "deterministic n²") {
		t.Error("render incomplete")
	}
}

func TestThroughputExperiment(t *testing.T) {
	cfg := sim.Config{PacketFlits: 2, PacketsPerPair: 4}
	res, err := Throughput(2, 3, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Row 0 is the nonblocking system: best mean slowdown of the set.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].MeanSlowdown < res.Rows[0].MeanSlowdown {
			t.Errorf("%s/%s mean slowdown %.2f beats the nonblocking system %.2f",
				res.Rows[i].Network, res.Rows[i].Router, res.Rows[i].MeanSlowdown, res.Rows[0].MeanSlowdown)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "crossbar") {
		t.Error("render incomplete")
	}
	// Degenerate sizes are errors, not topology-constructor panics or
	// empty averages.
	for _, c := range [][2]int{{0, 3}, {-1, 3}, {2, 0}} {
		if _, err := Throughput(c[0], c[1], 1, cfg); err == nil {
			t.Errorf("Throughput(n=%d, trials=%d) accepted", c[0], c[1])
		}
	}
}

func TestMultipathExperiment(t *testing.T) {
	res, err := Multipath(2, 5, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Router != "paper-deterministic" || res.Rows[0].BlockFraction != 0 {
		t.Fatalf("single-path row wrong: %+v", res.Rows[0])
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Router != "full-spray" || last.BlockFraction == 0 {
		t.Fatalf("full spray should block: %+v", last)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "P(contention)") {
		t.Error("render incomplete")
	}
}

func TestThreeLevelExperiment(t *testing.T) {
	res, err := ThreeLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatal("3-level not nonblocking")
	}
	if res.Design.Switches != 52 || res.Design.Ports != 24 {
		t.Fatalf("design = %+v", res.Design)
	}
	if res.PaperCount != 60 {
		t.Fatalf("paper count = %d", res.PaperCount)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "paper prints") {
		t.Error("render missing the count note")
	}
}

func TestMultiLevelExperiment(t *testing.T) {
	res, err := MultiLevel(2, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	wantPorts := []int{12, 24, 48}
	for i, row := range res.Rows {
		if !row.Nonblocking {
			t.Errorf("levels=%d not nonblocking", row.Levels)
		}
		if row.Design.Ports != wantPorts[i] {
			t.Errorf("levels=%d ports %d, want %d", row.Levels, row.Design.Ports, wantPorts[i])
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "nonblocking (exact)") {
		t.Error("render incomplete")
	}
}

func TestBenesExperiment(t *testing.T) {
	res, err := Benes(3, 4, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	byM := map[int]BenesRow{}
	for _, row := range res.Rows {
		byM[row.M] = row
	}
	if byM[3-1].GlobalOK {
		t.Error("m = n−1 should fail centralized routing")
	}
	if !byM[3].GlobalOK {
		t.Error("m = n should succeed centralized routing")
	}
	if byM[3].GreedyBlockFraction == 0 {
		t.Error("distributed greedy at m = n should block some patterns")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "centralized") {
		t.Error("render incomplete")
	}
}

func TestScalingExperiment(t *testing.T) {
	res, err := Scaling([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatal("rows")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "replace-bottom") {
		t.Error("render incomplete")
	}
}
