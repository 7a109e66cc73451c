// Command nbbench measures the repository's gated benchmark rows, emits a
// stable JSON report, and gates performance regressions against a
// committed baseline — the engine behind the CI bench-gate job (see
// .github/workflows/ci.yml and EXPERIMENTS.md).
//
// The rows are the Table-I fabric build, the randomized and exhaustive
// verification sweeps (the flat-array contention-accounting hot path), the
// incremental delta sweep over a precomputed route table, the
// symmetry-reduced sweeps, the exact all-pairs Lemma-1 decision, the
// full-load open-loop run (the dense event core hot path), a 4-trial
// closed-loop driver pass, the nbdesign planner (enumeration, closed
// forms, dominance pruning, monotone group searches) against a stub
// verifier, and the fault campaign. Each row is written once, as a plain
// operation: `go test -run '^$' -bench Gated ./cmd/nbbench` times the same
// rows as BenchmarkGated/<row>.
//
// Usage:
//
//	nbbench -out BENCH_sim.json                  # measure, write baseline
//	nbbench -baseline BENCH_sim.json             # measure, gate (CI)
//	nbbench -baseline BENCH_sim.json -out fresh.json
//	nbbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Timings are the minimum over -reps testing.Benchmark runs. Allocations
// are counted, not timed: see countAllocs, which makes them exact. The gate
// fails when any row exceeds the baseline ns/op by more than
// -max-ns-regress (default 25%) or allocates more per op than the
// baseline at all. The gate runs only when the baseline was recorded by
// the same Go toolchain: on a version mismatch it prints a warning and
// passes without comparing anything, allocations included, since
// codegen and runtime differences between toolchains are not regressions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
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

// benchResult is one row's measurement: min-of-reps timing (what the gate
// compares), the median and relative spread of the reps' timings (so a
// reader can tell box noise from a regression), the exact allocation
// profile, and a payload of simulator metrics (accepted load,
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

// row is one gated benchmark: one call of op does one unit of work and
// returns an error when its result drifts from what the row pins, and met
// is the row's deterministic metrics payload.
type row struct {
	name string
	op   func() error
	met  map[string]float64
}

// bench is the row's timed body for testing.Benchmark and BenchmarkGated.
func (r row) bench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := r.op(); err != nil {
			b.Fatal(err)
		}
	}
}

// errPaperBlocked is a row's drift error when Theorem 3's paper routing
// blocks.
var errPaperBlocked = errors.New("paper routing blocked")

// buildRows constructs the gated rows in report order.
func buildRows() ([]row, error) {
	var rows []row
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
		rows = append(rows, row{
			name: c.name,
			op: func() error {
				res, err := fclos.SweepRandomCtx(ctx, r, hosts, c.trials, 1)
				if err == nil && !res.Nonblocking() {
					err = errPaperBlocked
				}
				return err
			},
			met: map[string]float64{"trials": float64(c.trials)},
		})
	}

	// TopologyBuildTableI: building the Table-I fabric ftree(4+16, 20), the
	// fixed cost of every service request on it.
	rows = append(rows, row{
		name: "TopologyBuildTableI",
		op: func() error {
			if f := fclos.NewFoldedClos(4, 16, 20); f.Ports() != 80 {
				return fmt.Errorf("ftree(4+16,20) has %d hosts, want 80", f.Ports())
			}
			return nil
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
		rows = append(rows, row{
			name: c.name,
			op: func() error {
				res, _, err := fclos.Sweep(ctx, r, hosts, fclos.SweepSpec{})
				if err == nil && !res.Nonblocking() {
					err = errPaperBlocked
				}
				return err
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
		const patterns, blocked, orbits, groupOrder = 362880, 345168, 443, 1296
		rows = append(rows, row{
			name: "SweepExhaustiveSymN9",
			op: func() error {
				res, stats, err := fclos.Sweep(ctx, r, hosts, fclos.SweepSpec{SymBlock: 3})
				if err != nil {
					return err
				}
				if !stats.Applied || stats.Orbits != orbits || stats.GroupOrder != groupOrder ||
					res.Tested != patterns || res.Blocked != blocked {
					return fmt.Errorf("n=9 sym sweep drifted: applied=%t (%s) orbits=%d tested=%d blocked=%d",
						stats.Applied, stats.Reason, stats.Orbits, res.Tested, res.Blocked)
				}
				return nil
			},
			met: map[string]float64{"orbits": orbits, "patterns": patterns, "group_order": groupOrder},
		})
	}

	// SweepExhaustiveN10Spray: all 10! permutations of ftree(2+4, 5) under
	// full spray, 98% of them blocked, through the parallel pool on one
	// worker — the pruned count's home ground: a contended partial pattern
	// stands for all its completions.
	{
		f := fclos.NewFoldedClos(2, 4, 5)
		r := fclos.NewFullSpray(f)
		hosts := f.Ports()
		spec := fclos.SweepSpec{Parallel: true, Workers: 1}
		const patterns, blocked = 3628800, 3554272
		rows = append(rows, row{
			name: "SweepExhaustiveN10Spray",
			op: func() error {
				res, _, err := fclos.Sweep(ctx, r, hosts, spec)
				if err != nil {
					return err
				}
				if res.Tested != patterns || res.Blocked != blocked {
					return fmt.Errorf("n=10 spray sweep drifted: tested=%d blocked=%d", res.Tested, res.Blocked)
				}
				return nil
			},
			met: map[string]float64{"patterns": patterns, "blocked": blocked},
		})
	}

	// Lemma1AllPairs: the exact all-pairs Lemma-1 decision on the Table-I
	// network under dest-mod routing — one flat-array fold over all 6320
	// SD pairs, then the violated link's view rebuilt for the witness.
	{
		f := fclos.NewFoldedClos(4, 16, 20)
		r := fclos.NewDestMod(f)
		hosts := f.Ports()
		rows = append(rows, row{
			name: "Lemma1AllPairs",
			op: func() error {
				res, err := fclos.CheckLemma1AllPairs(r, hosts)
				if err != nil {
					return err
				}
				w, err := fclos.BlockingWitness(res, hosts)
				if err != nil || w.String() != "0->16 1->32" {
					return fmt.Errorf("lemma-1 drifted: witness %v (%v), want 0->16 1->32", w, err)
				}
				return nil
			},
			met: map[string]float64{"hosts": float64(hosts)},
		})
	}

	// OpenLoop: one full-load open-loop run on the nonblocking network.
	// One metered run computes the metrics; every call must reproduce its
	// accepted load and tail latency.
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
		mcfg := cfg
		mcfg.Collector = fclos.NewMetricsCollector()
		mres, err := fclos.OpenLoop(f.Net, pairs, fclos.PairPathsFunc(r), mcfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{
			name: "OpenLoop",
			op: func() error {
				res, err := fclos.OpenLoop(f.Net, pairs, fclos.PairPathsFunc(r), cfg)
				if err != nil {
					return err
				}
				if res.AcceptedLoad != mres.AcceptedLoad || res.P99Latency != mres.P99Latency {
					return fmt.Errorf("open-loop run drifted from the metered run: accepted %v p99 %d, want %v %d",
						res.AcceptedLoad, res.P99Latency, mres.AcceptedLoad, mres.P99Latency)
				}
				return nil
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
		const totalMakespan = 176
		rows = append(rows, row{
			name: "ClosedLoop4Trial",
			op: func() error {
				results, err := fclos.RunTrials(f.Net, r, hosts, 4, 1, 1, cfg)
				if err != nil {
					return err
				}
				var makespan int64
				for _, res := range results {
					if res.Delivered != res.TotalPackets {
						return fmt.Errorf("lost packets: %d of %d delivered", res.Delivered, res.TotalPackets)
					}
					makespan += res.Makespan
				}
				if makespan != totalMakespan {
					return fmt.Errorf("closed-loop makespans drifted: total %d, want %d", makespan, totalMakespan)
				}
				return nil
			},
			met: map[string]float64{"total_makespan": totalMakespan},
		})
	}

	// DesignPlanCatalog: the nbdesign three-tier planner — enumeration,
	// cost-ascending sort, closed-form decisions, dominance pruning, and
	// the monotone group binary searches with their probe memo — over a
	// 576-candidate ftree catalog. Probes answer from a closed-form stub
	// (nonblocking iff m ≥ n·r, the verified dest-mod truth) so the row
	// times the planner itself, not the sweep engines, and every counter
	// is pinned.
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
		// candidates, tier0, tier1, tier2, pruned, groups, fresh_runs,
		// frontier_points
		want := [8]int{576, 72, 450, 54, 146, 36, 124, 3}
		rows = append(rows, row{
			name: "DesignPlanCatalog",
			op: func() error {
				memo := store.NewMemory(1024)
				defer memo.Close()
				rep, err := fclos.PlanDesignSpace(ctx, cat, fclos.DesignOptions{Verify: stub, Memo: memo})
				if err != nil {
					return err
				}
				got := [8]int{rep.Candidates, rep.Tier0, rep.Tier1, rep.Tier2, rep.Pruned, rep.Groups, rep.FreshRuns, len(rep.Frontier)}
				if got != want {
					return fmt.Errorf("plan drifted: counters %v, want %v", got, want)
				}
				return nil
			},
			met: map[string]float64{
				"candidates":      float64(want[0]),
				"tier0":           float64(want[1]),
				"tier1":           float64(want[2]),
				"tier2":           float64(want[3]),
				"pruned":          float64(want[4]),
				"groups":          float64(want[5]),
				"fresh_runs":      float64(want[6]),
				"frontier_points": float64(want[7]),
			},
		})
	}

	// FaultCampaign: the fault-injection campaign engine — failure-set
	// sampling, per-set router rebuilds across all four fault-routing
	// schemes, and the pattern-analysis fan-out — sequentially on a small
	// fabric (the fault-smoke configuration without the simulator). The
	// pinned degradation sum pins the curves the row times.
	{
		cfg := fclos.CampaignConfig{
			N: 2, M: 8, R: 4, Scenario: "tops",
			MaxFailures: 3, Samples: 2, Trials: 10, Seed: 1,
		}
		const schemes, degraded = 4, 2.05
		rows = append(rows, row{
			name: "FaultCampaign",
			op: func() error {
				rep, err := fclos.RunFaultCampaign(ctx, cfg)
				if err != nil {
					return err
				}
				var d float64
				for _, c := range rep.Curves {
					d += c.Points[len(c.Points)-1].DegradedFrac
				}
				if len(rep.Curves) != schemes || d != degraded {
					return fmt.Errorf("campaign drifted: %d curves, final degraded sum %v (want %d, %v)",
						len(rep.Curves), d, schemes, degraded)
				}
				return nil
			},
			met: map[string]float64{
				"schemes":            schemes,
				"cells":              float64(schemes * (1 + cfg.MaxFailures*cfg.Samples)),
				"sum_final_degraded": degraded,
			},
		})
	}

	// SweepExhaustiveSymN12Spray: the symmetry-reduced n=12 certificate
	// on ftree(4+8, 3) under full spray, shaped like certify-sweep's sym12
	// request (parallel merge order, two workers): 8919 orbit
	// representatives of the S_4 ≀ S_3 group stand for all 12! patterns.
	// It times the orbit walk and the delta engine's class spans together.
	// Counts, orbits and the witness are checked every call, without
	// allocating.
	{
		f := fclos.NewFoldedClos(4, 8, 3)
		r := fclos.NewFullSpray(f)
		hosts := f.Ports()
		spec := fclos.SweepSpec{SymBlock: 4, Parallel: true, Workers: 2}
		const patterns, blocked, orbits, groupOrder = 479001600, 476554752, 8919, 82944
		witness := []int{0, 5, 3, 4, 1, 2, 6, 7, 8, 9, 10, 11}
		rows = append(rows, row{
			name: "SweepExhaustiveSymN12Spray",
			op: func() error {
				res, stats, err := fclos.Sweep(ctx, r, hosts, spec)
				if err != nil {
					return err
				}
				drifted := !stats.Applied || stats.Orbits != orbits || stats.GroupOrder != groupOrder ||
					res.Tested != patterns || res.Blocked != blocked || res.FirstBlocked == nil
				for s := 0; !drifted && s < hosts; s++ {
					drifted = res.FirstBlocked.Dst(s) != witness[s]
				}
				if drifted {
					return fmt.Errorf("n=12 sym spray sweep drifted: applied=%t orbits=%d tested=%d blocked=%d witness %s",
						stats.Applied, stats.Orbits, res.Tested, res.Blocked, res.FirstBlocked)
				}
				return nil
			},
			met: map[string]float64{"orbits": orbits, "patterns": patterns, "blocked": blocked, "group_order": groupOrder},
		})
	}

	return rows, nil
}

// allocCalls is the number of op calls one allocation count averages over.
const allocCalls = 10

// countAllocs returns the heap allocations and bytes of one call of op,
// exactly. testing.Benchmark leaves the collector running, and each GC
// cycle empties the sync.Pool caches (fmt, encoding/json) that op's calls
// share, so its count follows GC pacing. Here the count runs on one P with
// the collector off, after a warm-up call inside the same pause, so every
// counted call finds the pools as the previous one left them. The warm-up
// is the row's anchor run: an error from any call is returned.
func countAllocs(op func() error) (allocs, bytes int64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := op(); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / allocCalls, int64(after.TotalAlloc-before.TotalAlloc) / allocCalls, nil
}

// measure times r reps times under testing.Benchmark and returns the
// minimum ns/op: min-of-N filters scheduler noise, which only ever slows
// a run down. The median and spread of the timings ride along to show how
// noisy the minimum is.
func measure(r row, reps int) (lo, median, spread float64, err error) {
	ns := make([]float64, reps)
	for i := range ns {
		res := testing.Benchmark(r.bench)
		if res.N == 0 {
			return 0, 0, 0, fmt.Errorf("%s: failed while timing", r.name)
		}
		ns[i] = float64(res.T.Nanoseconds()) / float64(res.N)
	}
	lo, median, spread = summarize(ns)
	return lo, median, spread, nil
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

// gate compares fresh against baseline and returns one violation string
// per regression: ns/op beyond the threshold fraction, any allocs/op over
// the baseline, or a baseline benchmark missing from the fresh run.
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
		if f.AllocsOp > b.AllocsOp {
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

// measureSuite builds the rows, counts their allocations, then times them
// under a CPU profile and follows with a heap profile when their paths are
// set, and writes the results to outPath when set. The counts run before
// the profile starts, because the profiler's writer goroutine allocates.
func measureSuite(out io.Writer, outPath, cpuProfile, memProfile string, reps int) (*benchFile, error) {
	rows, err := buildRows()
	if err != nil {
		return nil, err
	}
	fresh := &benchFile{Schema: benchSchemaVersion, Go: runtime.Version(), Results: make([]benchResult, len(rows))}
	for i, r := range rows {
		res := &fresh.Results[i]
		res.Name, res.Metrics = r.name, r.met
		if res.AllocsOp, res.BytesOp, err = countAllocs(r.op); err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
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
		defer pprof.StopCPUProfile()
	}
	for i, r := range rows {
		res := &fresh.Results[i]
		if res.NsPerOp, res.NsMedian, res.NsSpread, err = measure(r, reps); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%-20s %12.0f ns/op (median %12.0f, spread %5.1f%%) %10d B/op %8d allocs/op\n",
			res.Name, res.NsPerOp, res.NsMedian, 100*res.NsSpread, res.BytesOp, res.AllocsOp)
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
// the whole gate, allocations included, with a warning.
func gateAgainst(out io.Writer, fresh *benchFile, baselinePath string, nsThreshold float64) error {
	baseline, err := readBenchFile(baselinePath)
	if err != nil {
		return err
	}
	if baseline.Go != fresh.Go {
		// ns/op differences between toolchains are codegen, and allocation
		// counts move with the runtime and standard library; comparing
		// across them would gate on noise.
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
	fmt.Fprintf(out, "gate passed against %s (ns/op threshold %.0f%%, allocs/op exact)\n",
		baselinePath, nsThreshold*100)
	return nil
}

func main() {
	var (
		outPath      = flag.String("out", "", "write the measured results as JSON to this path")
		baselinePath = flag.String("baseline", "", "gate the measured results against this JSON baseline")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the timed benchmark bodies to this path")
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
