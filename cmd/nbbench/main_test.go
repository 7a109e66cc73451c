package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func result(name string, ns float64, allocs int64) benchResult {
	return benchResult{Name: name, NsPerOp: ns, AllocsOp: allocs}
}

func file(results ...benchResult) *benchFile {
	return &benchFile{Schema: benchSchemaVersion, Go: "go-test", Results: results}
}

func TestGatePassesAgainstItself(t *testing.T) {
	bf := file(result("OpenLoop", 1000, 340), result("SweepRandom", 500, 933))
	if v := gate(bf, bf, 0.25); len(v) != 0 {
		t.Fatalf("self-comparison produced violations: %v", v)
	}
}

func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	baseline := file(result("OpenLoop", 1000, 340))
	// A 2x slowdown is far past the 25% threshold and must trip the gate.
	slow := file(result("OpenLoop", 2000, 340))
	v := gate(baseline, slow, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Fatalf("2x slowdown not caught: %v", v)
	}
	// 20% stays inside the threshold.
	if v := gate(baseline, file(result("OpenLoop", 1200, 340)), 0.25); len(v) != 0 {
		t.Fatalf("20%% regression tripped a 25%% gate: %v", v)
	}
	// Just past the threshold trips it.
	if v := gate(baseline, file(result("OpenLoop", 1251, 340)), 0.25); len(v) != 1 {
		t.Fatalf("25.1%% regression not caught: %v", v)
	}
}

func TestGateFailsOnAnyAllocRegression(t *testing.T) {
	baseline := file(result("OpenLoop", 1000, 340))
	v := gate(baseline, file(result("OpenLoop", 1000, 341)), 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("+1 alloc not caught: %v", v)
	}
	// Benchmarks with thousands of allocs/op get baseline/1000 slack for
	// GC-paced sync.Pool refills; small ones stay exact.
	for _, c := range []struct {
		base, fresh int64
		ok          bool
	}{{5818, 5822, true}, {5818, 5823, true}, {5818, 5824, false}, {33, 34, false}, {999, 1000, false}, {12071, 12083, true}, {12071, 12084, false}} {
		v := gate(file(result("B", 1000, c.base)), file(result("B", 1000, c.fresh)), 0.25)
		if (len(v) == 0) != c.ok {
			t.Errorf("%d -> %d allocs/op: violations %v, want pass=%t", c.base, c.fresh, v, c.ok)
		}
	}
	// Fewer allocations (or faster runs) are improvements, not violations.
	if v := gate(baseline, file(result("OpenLoop", 600, 100)), 0.25); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	baseline := file(result("OpenLoop", 1000, 340), result("SweepRandom", 500, 933))
	v := gate(baseline, file(result("OpenLoop", 1000, 340)), 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "not measured") {
		t.Fatalf("dropped benchmark not caught: %v", v)
	}
	// Extra fresh benchmarks (new additions) are fine.
	fresh := file(result("OpenLoop", 1000, 340), result("SweepRandom", 500, 933), result("New", 1, 1))
	if v := gate(baseline, fresh, 0.25); len(v) != 0 {
		t.Fatalf("new benchmark flagged: %v", v)
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := file(
		benchResult{Name: "OpenLoop", NsPerOp: 3465239, BytesOp: 557488, AllocsOp: 340,
			Metrics: map[string]float64{"accepted_load": 1}},
	)
	if err := writeBenchFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Name != "OpenLoop" ||
		got.Results[0].AllocsOp != 340 || got.Results[0].Metrics["accepted_load"] != 1 {
		t.Fatalf("round trip mangled: %+v", got)
	}
	// A future-schema file must be rejected, not silently compared.
	bad := file()
	bad.Schema = benchSchemaVersion + 1
	if err := writeBenchFile(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchFile(path); err == nil {
		t.Fatal("wrong schema version accepted")
	}
}

func TestMeasureMinOfReps(t *testing.T) {
	// A trivial deterministic benchmark: measure must report its (zero)
	// allocation profile and a positive timing.
	calls := 0
	bm := benchmark{
		name: "Trivial",
		fn: func(b *testing.B) {
			calls++
			s := 0
			for i := 0; i < b.N; i++ {
				s += i
			}
			if s < 0 {
				b.Fatal("impossible")
			}
		},
		met: map[string]float64{"k": 1},
	}
	res := measure(bm, 2)
	if calls < 2 {
		t.Fatalf("measure ran the benchmark %d times, want at least 2 reps", calls)
	}
	if res.Name != "Trivial" || res.NsPerOp <= 0 || res.AllocsOp != 0 || res.Metrics["k"] != 1 {
		t.Fatalf("unexpected measurement: %+v", res)
	}
}

func TestSummarizeMedianAndSpread(t *testing.T) {
	for _, c := range []struct {
		ns                 []float64
		lo, median, spread float64
	}{
		{[]float64{5}, 5, 5, 0},
		{[]float64{300, 100, 200}, 100, 200, 1},
		{[]float64{400, 100, 200, 300}, 100, 250, 1.2},
	} {
		lo, median, spread := summarize(c.ns)
		if lo != c.lo || median != c.median || spread != c.spread {
			t.Errorf("summarize(%v) = %v, %v, %v; want %v, %v, %v", c.ns, lo, median, spread, c.lo, c.median, c.spread)
		}
	}
}

func TestBuildBenchmarksConstructs(t *testing.T) {
	benches, err := buildBenchmarks()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SweepRandom", "SweepExhaustive", "SweepExhaustiveDelta", "SweepExhaustiveSymN9", "Lemma1AllPairs", "OpenLoop", "ClosedLoop4Trial", "DesignPlanCatalog", "FaultCampaign"}
	if len(benches) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(benches), len(want))
	}
	for i, bm := range benches {
		if bm.name != want[i] {
			t.Fatalf("benchmark %d is %q, want %q", i, bm.name, want[i])
		}
	}
	// The open-loop setup run must have observed a clean nonblocking
	// network: full acceptance, no link over capacity.
	var open benchmark
	for _, bm := range benches {
		if bm.name == "OpenLoop" {
			open = bm
		}
	}
	if open.met["accepted_load"] < 0.9 {
		t.Fatalf("open-loop accepted load %v", open.met["accepted_load"])
	}
	if u := open.met["max_link_utilization"]; u <= 0 || u > 1 {
		t.Fatalf("open-loop max utilization %v outside (0,1]", u)
	}
	// The sym setup run must have engaged the reduction with the pinned
	// orbit count — a fallback would time the wrong engine.
	var symBm benchmark
	for _, bm := range benches {
		if bm.name == "SweepExhaustiveSymN9" {
			symBm = bm
		}
	}
	if symBm.met["orbits"] != 443 || symBm.met["patterns"] != 362880 || symBm.met["group_order"] != 1296 {
		t.Fatalf("sym benchmark metrics drifted: %+v", symBm.met)
	}
	// The design-planner setup run must have exercised all three tiers of
	// machinery (closed forms, group searches with stub probes, pruning)
	// over the pinned catalog — a tier-2-free plan would time only the
	// enumerator.
	var designBm benchmark
	for _, bm := range benches {
		if bm.name == "DesignPlanCatalog" {
			designBm = bm
		}
	}
	if designBm.met["candidates"] != 576 {
		t.Fatalf("design benchmark catalog drifted: %+v", designBm.met)
	}
	for _, k := range []string{"tier0", "tier2", "pruned", "groups", "fresh_runs", "frontier_points"} {
		if designBm.met[k] <= 0 {
			t.Fatalf("design benchmark %s = %v, want > 0 (metrics %+v)", k, designBm.met[k], designBm.met)
		}
	}
	// The Lemma-1 setup run pinned the dest-mod witness on the 80-host
	// Table-I network (buildBenchmarks fails on drift).
	for _, bm := range benches {
		if bm.name == "Lemma1AllPairs" && bm.met["hosts"] != 80 {
			t.Fatalf("lemma-1 benchmark metrics drifted: %+v", bm.met)
		}
	}
	// The campaign setup run must have compared all four fault-routing
	// schemes and observed real degradation at the sweep's edge — a clean
	// curve would mean the failure injection went missing.
	var faultBm benchmark
	for _, bm := range benches {
		if bm.name == "FaultCampaign" {
			faultBm = bm
		}
	}
	if faultBm.met["schemes"] != 4 {
		t.Fatalf("fault benchmark scheme count drifted: %+v", faultBm.met)
	}
	if faultBm.met["sum_final_degraded"] <= 0 {
		t.Fatalf("fault benchmark saw no degradation at max failures: %+v", faultBm.met)
	}
}

func TestRunGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	// Two real one-rep measurements: a profiled baseline written to disk,
	// then a fresh run gated against it and against doctored copies of it.
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if _, err := measureSuite(&buf, base, cpu, mem, 1); err != nil {
		t.Fatalf("baseline run: %v\n%s", err, buf.String())
	}
	// Profiles: both flags must produce non-empty files.
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	buf.Reset()
	fresh, err := measureSuite(&buf, "", "", "", 1)
	if err != nil {
		t.Fatalf("fresh run: %v\n%s", err, buf.String())
	}
	// A generous ns/op threshold: both runs share one machine state, so
	// only allocs — which are deterministic — are tight.
	buf.Reset()
	if err := gateAgainst(&buf, fresh, base, 5.0); err != nil {
		t.Fatalf("gate run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate passed") {
		t.Fatalf("output: %s", buf.String())
	}
	// Doctor the baseline to simulate a 100x speedup in the past — i.e.
	// the fresh run is a 100x slowdown — and the same gate must now fail.
	bf, err := readBenchFile(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bf.Results {
		bf.Results[i].NsPerOp /= 100
	}
	if err := writeBenchFile(base, bf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := gateAgainst(&buf, fresh, base, 0.25); err == nil {
		t.Fatalf("gate passed against a 100x-faster baseline:\n%s", buf.String())
	}
	// Same doctored (100x-faster) baseline, but recorded by a different Go
	// toolchain: the ns/op comparison is meaningless across toolchains, so
	// the gate must warn and pass instead of failing.
	bf.Go = "go0.0-other"
	if err := writeBenchFile(base, bf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := gateAgainst(&buf, fresh, base, 0.25); err != nil {
		t.Fatalf("version-mismatched gate failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate skipped") {
		t.Fatalf("expected mismatch warning, got:\n%s", buf.String())
	}
}
