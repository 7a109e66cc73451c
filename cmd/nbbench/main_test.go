package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
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

// sink keeps TestMeasureMinOfReps's allocation on the heap.
var sink []byte

func TestMeasureMinOfReps(t *testing.T) {
	// A trivial deterministic row: measure must report a positive
	// timing, and countAllocs its exact allocation profile.
	calls := 0
	r := row{
		name: "Trivial",
		op: func() error {
			calls++
			sink = make([]byte, 64)
			return nil
		},
	}
	lo, median, spread, err := measure(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Fatalf("measure called the op %d times, want at least 2", calls)
	}
	if lo <= 0 || median < lo || spread < 0 {
		t.Fatalf("unexpected timing: min %v, median %v, spread %v", lo, median, spread)
	}
	calls = 0
	allocs, nbytes, err := countAllocs(r.op)
	if err != nil || allocs != 1 || nbytes != 64 || calls != 1+allocCalls {
		t.Fatalf("countAllocs = %d allocs, %d B, %v after %d calls; want 1, 64, nil after %d", allocs, nbytes, err, calls, 1+allocCalls)
	}
	// A failing op fails the count at its anchor call.
	drift := errors.New("drifted")
	if _, _, err := countAllocs(func() error { return drift }); err != drift {
		t.Fatalf("countAllocs swallowed the op's error: %v", err)
	}
}

// TestCountAllocsIgnoresGCPacing counts DesignPlanCatalog, the row whose
// testing.Benchmark count followed GC pacing through its fmt and
// encoding/json pool buffers, as is and again under an aggressive GC
// target with a 4 MB live heap: both counts must be identical.
func TestCountAllocsIgnoresGCPacing(t *testing.T) {
	rows, err := buildRows()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rows, func(r row) bool { return r.name == "DesignPlanCatalog" })
	if i < 0 {
		t.Fatal("no DesignPlanCatalog row")
	}
	allocs, nbytes, err := countAllocs(rows[i].op)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	live := make([][]byte, 64)
	for j := range live {
		live[j] = make([]byte, 64<<10)
	}
	pacedAllocs, pacedBytes, err := countAllocs(rows[i].op)
	runtime.KeepAlive(live)
	if err != nil {
		t.Fatal(err)
	}
	if pacedAllocs != allocs || pacedBytes != nbytes {
		t.Fatalf("GOGC=25 with 4 MB live: %d allocs/op, %d B/op; default: %d allocs/op, %d B/op",
			pacedAllocs, pacedBytes, allocs, nbytes)
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
	rows, err := buildRows()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SweepRandom", "SweepRandomTableI500", "TopologyBuildTableI", "SweepExhaustive", "SweepExhaustiveDelta", "SweepExhaustiveSymN9", "SweepExhaustiveN10Spray", "Lemma1AllPairs", "OpenLoop", "ClosedLoop4Trial", "DesignPlanCatalog", "FaultCampaign", "SweepExhaustiveSymN12Spray"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	met := map[string]map[string]float64{}
	for i, r := range rows {
		if r.name != want[i] {
			t.Fatalf("row %d is %q, want %q", i, r.name, want[i])
		}
		// One call is the row's anchor run: a drifted count, verdict,
		// witness or metric fails it.
		if err := r.op(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		met[r.name] = r.met
	}
	// The open-loop metered run must have observed a clean nonblocking
	// network: full acceptance, no link over capacity.
	if open := met["OpenLoop"]; open["accepted_load"] < 0.9 {
		t.Fatalf("open-loop accepted load %v", open["accepted_load"])
	} else if u := open["max_link_utilization"]; u <= 0 || u > 1 {
		t.Fatalf("open-loop max utilization %v outside (0,1]", u)
	}
	// The design plan must exercise all three tiers of machinery (closed
	// forms, group searches with stub probes, pruning) over the pinned
	// catalog — a tier-2-free plan would time only the enumerator.
	for _, k := range []string{"tier0", "tier2", "pruned", "groups", "fresh_runs", "frontier_points"} {
		if v := met["DesignPlanCatalog"][k]; v <= 0 {
			t.Fatalf("design row %s = %v, want > 0", k, v)
		}
	}
	// The campaign must compare all four fault-routing schemes and see real
	// degradation at the sweep's edge — a clean curve would mean the
	// failure injection went missing.
	if fault := met["FaultCampaign"]; fault["schemes"] != 4 || fault["sum_final_degraded"] <= 0 {
		t.Fatalf("fault row metrics %+v", fault)
	}
}

// BenchmarkGated times every gated row, one sub-benchmark per row: the
// same operations nbbench times and counts.
func BenchmarkGated(b *testing.B) {
	rows, err := buildRows()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.Run(r.name, r.bench)
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
