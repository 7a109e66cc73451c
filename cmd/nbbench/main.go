// Command nbbench runs the repository's key simulator benchmarks through
// testing.Benchmark, emits a stable JSON report, and gates performance
// regressions against a committed baseline — the engine behind the CI
// bench-gate job (see .github/workflows/ci.yml and EXPERIMENTS.md).
//
// The benchmarks mirror their bench_test.go namesakes: the Table-I fabric
// build, the randomized and exhaustive verification sweeps (the flat-array contention-accounting hot
// path), the incremental delta sweep over a precomputed route table, the
// exact all-pairs Lemma-1 decision, the
// full-load open-loop run (the dense event core hot path), and a 4-trial
// closed-loop driver pass. DesignPlanCatalog additionally gates the
// nbdesign planner hot path (enumeration, closed forms, dominance pruning,
// monotone group searches) against a stub verifier.
//
// Usage:
//
//	nbbench -out BENCH_sim.json                  # measure, write baseline
//	nbbench -baseline BENCH_sim.json             # measure, gate (CI)
//	nbbench -baseline BENCH_sim.json -out fresh.json
//	nbbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The gate fails when any benchmark exceeds the baseline ns/op by more
// than -max-ns-regress (default 25%) or allocates more per op than the
// baseline plus allocSlack. Allocation counts are deterministic up to GC
// pacing: standard-library sync.Pool caches (fmt, encoding/json) refill
// after each GC, which moves allocation-heavy benchmarks by a few allocs
// per thousand. The ns/op comparison only runs when the baseline
// was recorded by the same Go toolchain: on a version mismatch the gate
// prints a warning and passes, since codegen differences between
// toolchains are not regressions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"

	fclos "repro"
	"repro/internal/api"
	"repro/internal/store"
)

// benchSchemaVersion identifies the BENCH_sim.json layout; bump on any
// incompatible change to benchFile/benchResult.
const benchSchemaVersion = 1

// benchResult is one benchmark's measurement: min-of-reps timing (what
// the gate compares), the median and relative spread of the reps' timings
// (so a reader can tell box noise from a regression), the deterministic
// allocation profile, and a payload of simulator metrics (accepted load,
// utilization, makespans) that double as correctness anchors for the
// numbers being timed.
type benchResult struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_op"`
	NsMedian float64 `json:"ns_op_median,omitempty"`
	// NsSpread is (max − min) / median of the reps' ns/op.
	NsSpread float64            `json:"ns_op_spread,omitempty"`
	BytesOp  int64              `json:"bytes_op"`
	AllocsOp int64              `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the on-disk schema of BENCH_sim.json.
type benchFile struct {
	Schema  int           `json:"schema"`
	Go      string        `json:"go"`
	Results []benchResult `json:"results"`
}

// benchmark pairs a benchmark body with the deterministic metrics payload
// its setup computed.
type benchmark struct {
	name string
	fn   func(b *testing.B)
	met  map[string]float64
}

// buildBenchmarks constructs the gated benchmark set. Configurations
// mirror bench_test.go exactly so `go test -bench` and nbbench time the
// same work.
func buildBenchmarks() ([]benchmark, error) {
	var benches []benchmark
	ctx := context.Background()

	// SweepRandom: randomized Lemma-1 verification on the Table-I network,
	// at 10 trials (fewer than its 80 hosts: the scratch Checker) and at
	// the service default of 500 (on a route table).
	for _, c := range []struct {
		name   string
		trials int
	}{
		{"SweepRandom", 10},
		{"SweepRandomTableI500", 500},
	} {
		f := fclos.NewFoldedClos(4, 16, 20)
		r, err := fclos.NewPaperDeterministic(f)
		if err != nil {
			return nil, err
		}
		hosts := f.Ports()
		benches = append(benches, benchmark{
			name: c.name,
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if res, _ := fclos.SweepRandomCtx(ctx, r, hosts, c.trials, 1); !res.Nonblocking() {
						b.Fatal("paper routing blocked")
					}
				}
			},
			met: map[string]float64{"trials": float64(c.trials)},
		})
	}

	// TopologyBuildTableI: building the Table-I fabric ftree(4+16, 20), the
	// fixed cost of every service request on it.
	benches = append(benches, benchmark{
		name: "TopologyBuildTableI",
		fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if f := fclos.NewFoldedClos(4, 16, 20); f.Ports() != 80 {
					b.Fatal("ftree(4+16,20) has the wrong host count")
				}
			}
		},
	})

	// SweepExhaustive: all 8! permutations of ftree(4+16, 2).
	// SweepExhaustiveDelta: all 9! permutations of ftree(3+9, 3) through
	// the incremental engine — one route-table build, then O(path length)
	// per permutation. A factorial step up from SweepExhaustive (362880
	// patterns vs 40320) that stays fast only while the delta path does.
	for _, c := range []struct {
		name    string
		n, m, r int
		met     map[string]float64
	}{
		{"SweepExhaustive", 4, 16, 2, nil},
		{"SweepExhaustiveDelta", 3, 9, 3, map[string]float64{"patterns": 362880}},
	} {
		f := fclos.NewFoldedClos(c.n, c.m, c.r)
		r, err := fclos.NewPaperDeterministic(f)
		if err != nil {
			return nil, err
		}
		hosts := f.Ports()
		benches = append(benches, benchmark{
			name: c.name,
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if res, _, _ := fclos.Sweep(ctx, r, hosts, fclos.SweepSpec{}); !res.Nonblocking() {
						b.Fatal("paper routing blocked")
					}
				}
			},
			met: c.met,
		})
	}

	// SweepExhaustiveSymN9: the symmetry-reduced n=9 certificate — all
	// 362880 patterns of ftree(3+5, 3) under full spray collapse to 443
	// orbit representatives (group S_3 ≀ S_3, order 1296). The verdict must
	// stay exact: 345168 blocked patterns, scaled from orbit counters.
	// Gates both the orbit enumerator and the delta-checker integration;
	// compare against SweepExhaustiveDelta for the frontier speedup.
	{
		f := fclos.NewFoldedClos(3, 5, 3)
		r := fclos.NewFullSpray(f)
		hosts := f.Ports()
		res, stats, _ := fclos.Sweep(ctx, r, hosts, fclos.SweepSpec{SymBlock: 3})
		if !stats.Applied {
			return nil, fmt.Errorf("sym sweep fell back at n=9: %s", stats.Reason)
		}
		benches = append(benches, benchmark{
			name: "SweepExhaustiveSymN9",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, stats, _ := fclos.Sweep(ctx, r, hosts, fclos.SweepSpec{SymBlock: 3})
					if !stats.Applied || res.Blocked != 345168 || res.Tested != 362880 {
						b.Fatalf("sym sweep drifted: applied=%t blocked=%d tested=%d",
							stats.Applied, res.Blocked, res.Tested)
					}
				}
			},
			met: map[string]float64{
				"orbits":      float64(stats.Orbits),
				"patterns":    float64(res.Tested),
				"group_order": float64(stats.GroupOrder),
			},
		})
	}

	// SweepExhaustiveN10Spray: all 10! permutations of ftree(2+4, 5) under
	// full spray, 98% of them blocked, through the parallel pool on one
	// worker — the pruned count's home ground: a contended partial pattern
	// stands for all its completions. Counts are pinned at setup and per
	// iteration.
	{
		f := fclos.NewFoldedClos(2, 4, 5)
		r := fclos.NewFullSpray(f)
		hosts := f.Ports()
		spec := fclos.SweepSpec{Parallel: true, Workers: 1}
		const patterns, blocked = 3628800, 3554272
		sweep := func() error {
			res, _, err := fclos.Sweep(ctx, r, hosts, spec)
			if err != nil || res.Tested != patterns || res.Blocked != blocked {
				return fmt.Errorf("n=10 spray sweep drifted: tested=%d blocked=%d err=%v", res.Tested, res.Blocked, err)
			}
			return nil
		}
		if err := sweep(); err != nil {
			return nil, err
		}
		benches = append(benches, benchmark{
			name: "SweepExhaustiveN10Spray",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := sweep(); err != nil {
						b.Fatal(err)
					}
				}
			},
			met: map[string]float64{"patterns": patterns, "blocked": blocked},
		})
	}

	// Lemma1AllPairs: the exact all-pairs Lemma-1 decision on the Table-I
	// network under dest-mod routing — one flat-array fold over all 6320
	// SD pairs, then the violated link's view rebuilt for the witness. The
	// verdict and witness are pinned at setup and per iteration.
	{
		f := fclos.NewFoldedClos(4, 16, 20)
		r := fclos.NewDestMod(f)
		hosts := f.Ports()
		decide := func() error {
			res, err := fclos.CheckLemma1AllPairs(r, hosts)
			if err != nil {
				return err
			}
			w, err := fclos.BlockingWitness(res, hosts)
			if err != nil || w.String() != "0->16 1->32" {
				return fmt.Errorf("lemma-1 drifted: witness %v (%v), want 0->16 1->32", w, err)
			}
			return nil
		}
		if err := decide(); err != nil {
			return nil, err
		}
		benches = append(benches, benchmark{
			name: "Lemma1AllPairs",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := decide(); err != nil {
						b.Fatal(err)
					}
				}
			},
			met: map[string]float64{"hosts": float64(hosts)},
		})
	}

	// OpenLoop: one full-load open-loop run on the nonblocking network.
	{
		f := fclos.NewNonblockingFtree(3, 12)
		r, err := fclos.NewPaperDeterministic(f)
		if err != nil {
			return nil, err
		}
		p := fclos.SwitchShiftPerm(3, 12, 1)
		dst := make([]int, p.N())
		for i := 0; i < p.N(); i++ {
			dst[i] = p.Dst(i)
		}
		pairs := fclos.PermPairs(dst)
		cfg := fclos.OpenLoopConfig{
			PacketFlits: 4, Rate: 1.0, WarmupPackets: 10, MeasuredPackets: 50,
			Seed: 1, Arbiter: fclos.ArbiterRoundRobin,
		}
		// One metered run anchors the numbers the benchmark re-validates.
		mcfg := cfg
		mcfg.Collector = fclos.NewMetricsCollector()
		mres, err := fclos.OpenLoop(f.Net, pairs, fclos.PairPathsFunc(r), mcfg)
		if err != nil {
			return nil, err
		}
		benches = append(benches, benchmark{
			name: "OpenLoop",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := fclos.OpenLoop(f.Net, pairs, fclos.PairPathsFunc(r), cfg)
					if err != nil {
						b.Fatal(err)
					}
					if res.AcceptedLoad < 0.9 {
						b.Fatalf("nonblocking accepted %.2f", res.AcceptedLoad)
					}
				}
			},
			met: map[string]float64{
				"accepted_load":        mres.AcceptedLoad,
				"p99_latency":          float64(mres.P99Latency),
				"max_link_utilization": mres.Metrics.MaxUtilization(),
			},
		})
	}

	// ClosedLoop4Trial: the trial driver, inline (workers = 1), over 4
	// random permutations.
	{
		f := fclos.NewNonblockingFtree(3, 12)
		r, err := fclos.NewPaperDeterministic(f)
		if err != nil {
			return nil, err
		}
		hosts := f.Ports()
		cfg := fclos.SimConfig{PacketFlits: 4, PacketsPerPair: 8, Arbiter: fclos.ArbiterRoundRobin}
		trials, err := fclos.RunTrials(f.Net, r, hosts, 4, 1, 1, cfg)
		if err != nil {
			return nil, err
		}
		var makespan int64
		for _, res := range trials {
			makespan += res.Makespan
		}
		benches = append(benches, benchmark{
			name: "ClosedLoop4Trial",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					results, err := fclos.RunTrials(f.Net, r, hosts, 4, 1, 1, cfg)
					if err != nil {
						b.Fatal(err)
					}
					for _, res := range results {
						if res.Delivered != res.TotalPackets {
							b.Fatal("lost packets")
						}
					}
				}
			},
			met: map[string]float64{"total_makespan": float64(makespan)},
		})
	}

	// DesignPlanCatalog: the nbdesign three-tier planner — enumeration,
	// cost-ascending sort, closed-form decisions, dominance pruning, and
	// the monotone group binary searches with their probe memo — over a
	// 576-candidate ftree catalog. Probes answer from a closed-form stub
	// (nonblocking iff m ≥ n·r, the verified dest-mod truth) so the
	// benchmark times the planner itself, not the sweep engines, and every
	// counter and allocation is deterministic.
	{
		cat := &fclos.DesignCatalog{
			Families: []string{"ftree"},
			Routers:  []string{"dest-mod", "dest-switch-mod"},
			N:        &api.DesignRange{Min: 2, Max: 4},
			R:        &api.DesignRange{Min: 3, Max: 8},
			M:        &api.DesignRange{Min: 1, Max: 16},
			Verify:   &api.DesignVerify{MaxHosts: 32, MaxExhaustive: 7, Trials: 100},
		}
		stub := func(_ context.Context, q *api.Request) (*api.VerifyReport, error) {
			rep := &api.VerifyReport{Method: "lemma1-exact", Exact: true, Verdict: "blocking"}
			if q.M >= q.N*q.R {
				rep.Verdict = "nonblocking"
			}
			return rep, nil
		}
		plan := func() (*fclos.DesignReport, error) {
			memo := store.NewMemory(1024)
			defer memo.Close()
			return fclos.PlanDesignSpace(ctx, cat, fclos.DesignOptions{Verify: stub, Memo: memo})
		}
		rep, err := plan()
		if err != nil {
			return nil, err
		}
		if rep.Candidates != 576 {
			return nil, fmt.Errorf("design catalog drifted: %d candidates, want 576", rep.Candidates)
		}
		benches = append(benches, benchmark{
			name: "DesignPlanCatalog",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					got, err := plan()
					if err != nil {
						b.Fatal(err)
					}
					if got.Candidates != rep.Candidates || got.Tier0 != rep.Tier0 ||
						got.Pruned != rep.Pruned || len(got.Frontier) != len(rep.Frontier) {
						b.Fatalf("plan drifted: candidates=%d tier0=%d pruned=%d frontier=%d",
							got.Candidates, got.Tier0, got.Pruned, len(got.Frontier))
					}
				}
			},
			met: map[string]float64{
				"candidates":      float64(rep.Candidates),
				"tier0":           float64(rep.Tier0),
				"tier1":           float64(rep.Tier1),
				"tier2":           float64(rep.Tier2),
				"pruned":          float64(rep.Pruned),
				"groups":          float64(rep.Groups),
				"fresh_runs":      float64(rep.FreshRuns),
				"frontier_points": float64(len(rep.Frontier)),
			},
		})
	}

	// FaultCampaign: the fault-injection campaign engine — failure-set
	// sampling, per-set router rebuilds across all four fault-routing
	// schemes, and the pattern-analysis fan-out — sequentially on a small
	// fabric (the fault-smoke configuration without the simulator). The
	// anchored degradation sums pin the curves the benchmark re-times.
	{
		cfg := fclos.CampaignConfig{
			N: 2, M: 8, R: 4, Scenario: "tops",
			MaxFailures: 3, Samples: 2, Trials: 10, Seed: 1,
		}
		rep, err := fclos.RunFaultCampaign(ctx, cfg)
		if err != nil {
			return nil, err
		}
		var degraded float64
		for _, c := range rep.Curves {
			degraded += c.Points[len(c.Points)-1].DegradedFrac
		}
		benches = append(benches, benchmark{
			name: "FaultCampaign",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					got, err := fclos.RunFaultCampaign(ctx, cfg)
					if err != nil {
						b.Fatal(err)
					}
					var d float64
					for _, c := range got.Curves {
						d += c.Points[len(c.Points)-1].DegradedFrac
					}
					if len(got.Curves) != len(rep.Curves) || d != degraded {
						b.Fatalf("campaign drifted: %d curves, final degraded sum %.4f (want %d, %.4f)",
							len(got.Curves), d, len(rep.Curves), degraded)
					}
				}
			},
			met: map[string]float64{
				"schemes":            float64(len(rep.Curves)),
				"cells":              float64(len(rep.Curves) * (1 + cfg.MaxFailures*cfg.Samples)),
				"sum_final_degraded": degraded,
			},
		})
	}
	// SweepExhaustiveSymN12Spray: the symmetry-reduced n=12 certificate
	// on ftree(4+8, 3) under full spray, shaped like certify-sweep's sym12
	// request (parallel merge order, two workers): 8919 orbit
	// representatives of the S_4 ≀ S_3 group stand for all 12! patterns.
	// It times the orbit walk and the delta engine's class spans together.
	// Counts, orbits and the witness are checked every iteration, without
	// allocating. The row comes last and has no setup run: the n=12 group
	// table stays cached for the life of the process, and a larger live
	// heap makes the GC cycle more often in the rows measured after it,
	// which re-allocate their json and fmt pool buffers after every cycle
	// (DesignPlanCatalog reads one alloc/op more).
	{
		f := fclos.NewFoldedClos(4, 8, 3)
		r := fclos.NewFullSpray(f)
		hosts := f.Ports()
		spec := fclos.SweepSpec{SymBlock: 4, Parallel: true, Workers: 2}
		const patterns, blocked, orbits, groupOrder = 479001600, 476554752, 8919, 82944
		witness := []int{0, 5, 3, 4, 1, 2, 6, 7, 8, 9, 10, 11}
		benches = append(benches, benchmark{
			name: "SweepExhaustiveSymN12Spray",
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, stats, err := fclos.Sweep(ctx, r, hosts, spec)
					drifted := err != nil || !stats.Applied || stats.Orbits != orbits || stats.GroupOrder != groupOrder ||
						res.Tested != patterns || res.Blocked != blocked || res.FirstBlocked == nil
					for s := 0; !drifted && s < hosts; s++ {
						drifted = res.FirstBlocked.Dst(s) != witness[s]
					}
					if drifted {
						b.Fatalf("n=12 sym spray sweep drifted: err=%v applied=%t orbits=%d tested=%d blocked=%d witness %s",
							err, stats.Applied, stats.Orbits, res.Tested, res.Blocked, res.FirstBlocked)
					}
				}
			},
			met: map[string]float64{"orbits": orbits, "patterns": patterns, "blocked": blocked, "group_order": groupOrder},
		})
	}

	return benches, nil
}

// measure runs bm reps times under testing.Benchmark and keeps the
// minimum per-op numbers: min-of-N filters scheduler noise, which only
// ever slows a run down. The median and spread of the timings ride along
// to show how noisy the minimum is.
func measure(bm benchmark, reps int) benchResult {
	out := benchResult{Name: bm.name, Metrics: bm.met}
	ns := make([]float64, reps)
	for i := range ns {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		if a := r.AllocsPerOp(); i == 0 || a < out.AllocsOp {
			out.AllocsOp = a
		}
		if by := r.AllocedBytesPerOp(); i == 0 || by < out.BytesOp {
			out.BytesOp = by
		}
	}
	out.NsPerOp, out.NsMedian, out.NsSpread = summarize(ns)
	return out
}

// summarize returns the minimum, the median and the relative spread
// ((max − min) / median) of one benchmark's per-rep ns/op; it sorts ns.
func summarize(ns []float64) (lo, median, spread float64) {
	slices.Sort(ns)
	n := len(ns)
	median = ns[n/2]
	if n%2 == 0 {
		median = (ns[n/2-1] + ns[n/2]) / 2
	}
	return ns[0], median, (ns[n-1] - ns[0]) / median
}

// allocSlack is the allocs/op increase the gate tolerates over a baseline
// of b allocs/op: b/1000, so benchmarks under 1000 allocs/op stay exact.
func allocSlack(b int64) int64 { return b / 1000 }

// gate compares fresh against baseline and returns one violation string
// per regression: ns/op beyond the threshold fraction, allocs/op beyond
// the baseline plus allocSlack, or a baseline benchmark missing from the
// fresh run.
func gate(baseline, fresh *benchFile, nsThreshold float64) []string {
	var violations []string
	byName := make(map[string]benchResult, len(fresh.Results))
	for _, r := range fresh.Results {
		byName[r.Name] = r
	}
	for _, b := range baseline.Results {
		f, ok := byName[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: in baseline but not measured", b.Name))
			continue
		}
		if b.NsPerOp > 0 && f.NsPerOp > b.NsPerOp*(1+nsThreshold) {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				b.Name, f.NsPerOp, b.NsPerOp, nsThreshold*100))
		}
		if f.AllocsOp > b.AllocsOp+allocSlack(b.AllocsOp) {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op regresses baseline %d allocs/op",
				b.Name, f.AllocsOp, b.AllocsOp))
		}
	}
	return violations
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != benchSchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, bf.Schema, benchSchemaVersion)
	}
	return &bf, nil
}

func writeBenchFile(path string, bf *benchFile) error {
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureSuite builds and measures the benchmark suite, under a CPU
// profile and followed by a heap profile when their paths are set, and
// writes the results to outPath when set.
func measureSuite(out io.Writer, outPath, cpuProfile, memProfile string, reps int) (*benchFile, error) {
	benches, err := buildBenchmarks()
	if err != nil {
		return nil, err
	}
	if cpuProfile != "" {
		pf, err := os.Create(cpuProfile)
		if err != nil {
			return nil, err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return nil, err
		}
	}
	fresh := &benchFile{Schema: benchSchemaVersion, Go: runtime.Version()}
	for _, bm := range benches {
		res := measure(bm, reps)
		fmt.Fprintf(out, "%-20s %12.0f ns/op (median %12.0f, spread %5.1f%%) %10d B/op %8d allocs/op\n",
			res.Name, res.NsPerOp, res.NsMedian, 100*res.NsSpread, res.BytesOp, res.AllocsOp)
		fresh.Results = append(fresh.Results, res)
	}
	if cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(out, "wrote CPU profile %s\n", cpuProfile)
	}
	if memProfile != "" {
		pf, err := os.Create(memProfile)
		if err != nil {
			return nil, err
		}
		runtime.GC() // settle the steady-state heap before snapshotting
		if err := pprof.WriteHeapProfile(pf); err != nil {
			pf.Close()
			return nil, err
		}
		if err := pf.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "wrote heap profile %s\n", memProfile)
	}
	if outPath != "" {
		if err := writeBenchFile(outPath, fresh); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "wrote %s\n", outPath)
	}
	return fresh, nil
}

// gateAgainst gates fresh against the baseline at baselinePath: an error
// lists the regressions, and a baseline from another Go toolchain skips
// the gate with a warning.
func gateAgainst(out io.Writer, fresh *benchFile, baselinePath string, nsThreshold float64) error {
	baseline, err := readBenchFile(baselinePath)
	if err != nil {
		return err
	}
	if baseline.Go != fresh.Go {
		// ns/op differences between toolchains are codegen, not
		// regressions; comparing across them would gate on noise.
		fmt.Fprintf(out, "gate skipped: baseline %s was recorded with %s, running %s (re-record the baseline to re-arm the gate)\n",
			baselinePath, baseline.Go, fresh.Go)
		return nil
	}
	if violations := gate(baseline, fresh, nsThreshold); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(out, "REGRESSION:", v)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(violations), baselinePath)
	}
	fmt.Fprintf(out, "gate passed against %s (ns/op threshold %.0f%%, allocs within 0.1%%)\n",
		baselinePath, nsThreshold*100)
	return nil
}

func main() {
	var (
		outPath      = flag.String("out", "", "write the measured results as JSON to this path")
		baselinePath = flag.String("baseline", "", "gate the measured results against this JSON baseline")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the measured benchmark bodies to this path")
		memProfile   = flag.String("memprofile", "", "write a post-GC heap profile to this path after measuring")
		reps         = flag.Int("reps", 3, "benchmark repetitions; min-of-reps is gated, median and spread are reported")
		nsRegress    = flag.Float64("max-ns-regress", 0.25, "allowed fractional ns/op regression before the gate fails")
	)
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "nbbench: -reps must be at least 1")
		os.Exit(2)
	}
	fresh, err := measureSuite(os.Stdout, *outPath, *cpuProfile, *memProfile, *reps)
	if err == nil && *baselinePath != "" {
		err = gateAgainst(os.Stdout, fresh, *baselinePath, *nsRegress)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbench:", err)
		os.Exit(1)
	}
}
