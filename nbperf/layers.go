package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topology"
)

// layerMetric is one per-layer metric: its unit and direction, and the
// end-to-end metric and workload it should move. On the other workloads
// the prediction is no change.
type layerMetric struct {
	name, unit, better, moves string
}

// The layers are the repository's modules: server (handler pipeline and
// coordinator), store, api, topology, routing, permutation, analysis, sim,
// campaign and design. Times are means per call unless the name says
// otherwise; "self.<layer>_ms" is the layer's self time (its spans minus
// their children) per replayed request.
var layerMetrics = []layerMetric{
	{"api.decode_us", "us", "lower", "latency_p50_ms, throughput_rps on verify-mix"},
	{"api.cache_key_us", "us", "lower", "latency_p50_ms, throughput_rps on verify-mix"},
	{"api.encode_us", "us", "lower", "latency_p50_ms, throughput_rps on verify-mix"},
	{"store.get_us", "us", "lower", "latency_p50_ms, throughput_rps on verify-mix"},
	{"store.put_us", "us", "lower", "latency_p50_ms, throughput_rps on verify-mix"},
	{"server.overhead_ms", "ms", "lower", "latency_p50_ms, throughput_rps on verify-mix"},
	{"store.hit_ratio", "ratio", "higher", "throughput_rps on verify-mix"},
	{"store.puts", "1/req", "lower", "alloc_kb_per_req on degrade-design"},
	{"server.jobs_rejected", "count", "lower", "throughput_rps on verify-mix"},
	{"server.job_run_ms_p50", "ms", "lower", "throughput_rps on verify-mix"},
	{"topology.build_us", "us", "lower", "latency_p50_ms on verify-mix; latency_tail_ms on certify-sweep"},
	{"routing.router_build_us", "us", "lower", "latency_p50_ms on verify-mix; latency_tail_ms on certify-sweep"},
	{"analysis.lemma1_ms", "ms", "lower", "latency_p50_ms on verify-mix; latency_tail_ms on certify-sweep"},
	{"analysis.analyze_pattern_us", "us", "lower", "latency_p50_ms on verify-mix; latency_tail_ms on certify-sweep"},
	{"routing.route_table_build_us", "us", "lower", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"routing.route_table_entries", "count", "lower", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"permutation.enumerate_ns_per_pattern", "ns", "lower", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"permutation.orbit_ns_per_rep", "ns", "lower", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"analysis.delta_swap_ns", "ns", "lower", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"analysis.sweep_patterns_per_s", "1/s", "higher", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"analysis.parallel_speedup", "x", "higher", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"analysis.sym_fallbacks", "count", "lower", "latency_p50_ms, throughput_rps on certify-sweep"},
	{"coordinator.shards", "1/sweep", "lower", "latency_tail_ms on certify-sweep"},
	{"coordinator.shards_retried", "count", "lower", "latency_tail_ms on certify-sweep"},
	{"coordinator.shard_ms_p50", "ms", "lower", "latency_tail_ms on certify-sweep"},
	{"coordinator.overhead_ms", "ms", "lower", "latency_tail_ms on certify-sweep"},
	{"campaign.sample_us", "us", "lower", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"topology.failure_view_us", "us", "lower", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"routing.fault_router_rebuilds", "1/req", "lower", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"campaign.cell_us", "us", "lower", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"campaign.allocs_per_cell", "count", "lower", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"campaign.routed_ratio", "ratio", "higher", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"sim.run_ms", "ms", "lower", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"design.plan_ms", "ms", "lower", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"design.tier0_share", "ratio", "higher", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"design.memo_hit_ratio", "ratio", "higher", "cpu_ms_per_req, alloc_kb_per_req, throughput_rps on degrade-design"},
	{"self.server_ms", "ms/req", "lower", "latency_p50_ms on verify-mix"},
	{"self.api_ms", "ms/req", "lower", "latency_p50_ms on verify-mix"},
	{"self.store_ms", "ms/req", "lower", "latency_p50_ms on verify-mix"},
	{"self.topology_ms", "ms/req", "lower", "latency_p50_ms on verify-mix"},
	{"self.routing_ms", "ms/req", "lower", "latency_p50_ms on verify-mix; cpu_ms_per_req on degrade-design"},
	{"self.permutation_ms", "ms/req", "lower", "latency_p50_ms on certify-sweep"},
	{"self.analysis_ms", "ms/req", "lower", "latency_p50_ms on verify-mix and certify-sweep"},
	{"self.sim_ms", "ms/req", "lower", "cpu_ms_per_req on degrade-design"},
	{"self.campaign_ms", "ms/req", "lower", "cpu_ms_per_req, alloc_kb_per_req on degrade-design"},
	{"self.design_ms", "ms/req", "lower", "cpu_ms_per_req on degrade-design"},
	{"trace.coverage", "ratio", "higher", "none: traced job time over untraced job time; time no layer accounts for shows as a gap from 1"},
}

// traceLayers are the modules self time is reported for.
var traceLayers = []string{"server", "api", "store", "topology", "routing", "permutation", "analysis", "sim", "campaign", "design"}

// runTraced is the traced run: a shorter HTTP window for the /metrics
// figures, then a replay of exactly the requests that window completed,
// with spans, then side measurements of the sub-calls one engine call
// hides. Layers the workload's stream never reaches are measured on a
// probe stream (one request of every class of every workload), so every
// metric has a value on every workload.
func runTraced(stdout, stderr io.Writer, w *workload, seed int64, dur time.Duration, dir string) (*result, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	layout := *w
	layout.cluster = true // the coordinator probe needs the worker nodes
	c, err := setUp(&layout, hc)
	if err != nil {
		return nil, err
	}
	defer c.close()

	gen := func(i int) request { return w.gen(seed, i) }
	before, err := scrape(hc, c)
	if err != nil {
		return nil, err
	}
	win := runWindow(hc, c.front.url, w.clients, max(dur/2, time.Second), gen, true)
	after, err := scrape(hc, c)
	if err != nil {
		return nil, err
	}
	failed := reportFailures(stderr, win.outcomes)
	correct := true
	if err := checkQueues(after); err != nil {
		fmt.Fprintf(stderr, "nbperf: %v\n", err)
		correct = false
	}
	deltas := make([]*server.MetricsSnapshot, len(after))
	for i := range after {
		deltas[i] = deltaOf(before[i], after[i])
	}
	printDeltas(stdout, before, after)

	coordOuts, coordDeltas := win.outcomes, deltas
	if !hasClass(win.outcomes, "coord-sweep9") {
		if coordOuts, coordDeltas, err = coordinatorProbe(hc, c); err != nil {
			return nil, err
		}
	}

	// Replay the completed prefix in stream order and hold every answer
	// against the untraced one.
	outs := append([]outcome(nil), win.outcomes...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].index < outs[j].index })
	work := newReplayer(newTracer())
	for _, o := range outs {
		r := gen(o.index)
		got, err := work.replay(o.index, &r)
		if err == nil && o.err == nil {
			var want string
			if want, err = digest(&r, o.body); err == nil && got != want {
				err = fmt.Errorf("traced replay disagrees with the untraced answer")
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "nbperf: replay of request %d (%s): %v\n", o.index, o.class, err)
			failed++
		}
	}
	probe := newReplayer(newTracer())
	for i, r := range probeStream() {
		if _, err := probe.replay(i, &r); err != nil {
			return nil, fmt.Errorf("probe replay of %s: %w", r.Class, err)
		}
	}
	side, err := measureSide()
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, d := range []struct {
		tag string
		rp  *replayer
	}{{"stream", work}, {"probe", probe}} {
		path := filepath.Join(dir, fmt.Sprintf("nbperf-spans-%s-seed%d-%s.tsv.gz", w.name, seed, d.tag))
		if err := writeSpans(path, d.rp.tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d %s spans written to %s\n", len(d.rp.tr.spans), d.tag, path)
	}

	vals := layerValues(work, probe, len(outs), outs, deltas, coordOuts, coordDeltas, side)
	m := map[string]metric{}
	fmt.Fprintf(stdout, "requests: attempted %d, failed %d (untraced window %.3f s, then replayed)\n", len(outs), failed, win.wall.Seconds())
	for _, lm := range layerMetrics {
		m[lm.name] = metric{vals[lm.name], lm.unit}
		fmt.Fprintf(stdout, "%-38s %16.6f %-7s moves %s\n", lm.name, vals[lm.name], lm.unit, lm.moves)
	}
	return &result{Correct: correct && failed == 0, Attempted: len(outs), Failed: failed, Metrics: m}, nil
}

func hasClass(outs []outcome, class string) bool {
	for _, o := range outs {
		if o.class == class {
			return true
		}
	}
	return false
}

// coordinatorProbe sends three pairs of the n=9 sweep, single-node then
// coordinated, and returns their outcomes with the /metrics deltas.
func coordinatorProbe(hc *http.Client, c *cluster) ([]outcome, []*server.MetricsSnapshot, error) {
	before, err := scrape(hc, c)
	if err != nil {
		return nil, nil, err
	}
	var outs []outcome
	for k := 0; k < 3; k++ {
		for _, r := range []request{certifyRequest("sweep9"), certifyRequest("coord-sweep9")} {
			o := do(context.Background(), hc, c.front.url, &r)
			if o.err != nil {
				return nil, nil, fmt.Errorf("coordinator probe %s: %w", r.Class, o.err)
			}
			outs = append(outs, o)
		}
	}
	after, err := scrape(hc, c)
	if err != nil {
		return nil, nil, err
	}
	deltas := make([]*server.MetricsSnapshot, len(after))
	for i := range after {
		deltas[i] = deltaOf(before[i], after[i])
	}
	return outs, deltas, nil
}

// probeStream is one request of every class of every workload.
func probeStream() []request {
	var out []request
	for _, w := range workloads {
		out = append(out, firstOfEachClass(w.gen)...)
	}
	return out
}

// sideResult holds the sub-call costs one engine call hides, timed on
// the inputs the certify-sweep stream uses.
type sideResult struct {
	enumNs, swapNs, orbitNs, speedup float64
}

// measureSide times EnumerateFullSwaps with a no-op yield and with a
// DeltaChecker.Swap per pattern (n=9, dest-mod on ftree(3+3,3)), the orbit
// enumeration of the n=12 block symmetry, and the n=10 full-spray sweep
// at one and two workers. Each figure is the median of three runs.
func measureSide() (sideResult, error) {
	var s sideResult
	const n9 = 362880
	noop := medianDur(3, func() {
		permutation.EnumerateFullSwaps(9, func(*permutation.Permutation, int, int) bool { return true })
	})
	f := topology.NewFoldedClos(3, 3, 3)
	table, err := routing.BuildRouteTable(routing.NewDestMod(f), 9)
	if err != nil {
		return s, err
	}
	d := analysis.NewDeltaChecker(table)
	swaps := medianDur(3, func() {
		permutation.EnumerateFullSwaps(9, func(p *permutation.Permutation, i, j int) bool {
			if i < 0 {
				d.Reset(p)
			} else {
				d.Swap(i, j)
			}
			return true
		})
	})
	s.enumNs = float64(noop) / n9
	s.swapNs = float64(swaps-noop) / n9

	sym, err := permutation.NewBlockSymmetry(12, 4)
	if err != nil {
		return s, err
	}
	reps := 0
	orbits := medianDur(3, func() {
		reps = 0
		sym.OrbitsRange(0, sym.NecklaceCount(), func(*permutation.Permutation, int) bool { reps++; return true })
	})
	s.orbitNs = ratio(float64(orbits), float64(reps))

	spray := routing.NewFullSpray(topology.NewFoldedClos(2, 4, 5))
	sweep := func(workers int) func() {
		return func() { _, _ = analysis.SweepExhaustiveParallelCtx(context.Background(), spray, 10, workers) }
	}
	s.speedup = ratio(float64(medianDur(3, sweep(1))), float64(medianDur(3, sweep(2))))
	return s, nil
}

func medianDur(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// layerValues computes every per-layer metric. Span figures come from the
// stream replay, or from the probe replay when the stream never made that
// call; /metrics figures come from the untraced window.
func layerValues(work, probe *replayer, replayed int, outs []outcome, deltas []*server.MetricsSnapshot,
	coordOuts []outcome, coordDeltas []*server.MetricsSnapshot, side sideResult) map[string]float64 {
	ws, ps := statsByName(work.tr.spans), statsByName(probe.tr.spans)
	st := func(name string) spanStat {
		if s := ws[name]; s.count > 0 {
			return s
		}
		return ps[name]
	}
	us := func(name string) float64 { return st(name).meanNs() / 1e3 }
	ms := func(name string) float64 { return st(name).meanNs() / 1e6 }
	perWork := func(name string) float64 {
		s := st(name)
		return ratio(float64(s.totalNs), float64(s.work))
	}
	camp, des := work, work
	if work.campaigns == 0 {
		camp = probe
	}
	if work.designs == 0 {
		des = probe
	}
	front := deltas[0]
	v := map[string]float64{
		"api.decode_us":                        us("api.decode"),
		"api.cache_key_us":                     us("api.cache_key"),
		"api.encode_us":                        us("api.encode"),
		"store.get_us":                         us("store.get"),
		"store.put_us":                         us("store.put"),
		"server.overhead_ms":                   missOverheadMs(outs, front),
		"store.hit_ratio":                      ratio(float64(front.StoreHits), float64(front.StoreHits+front.StoreMisses)),
		"store.puts":                           ratio(float64(front.StorePuts), float64(len(outs))),
		"server.jobs_rejected":                 float64(front.JobsRejected),
		"server.job_run_ms_p50":                histQuantile(front.JobLatency, 0.5) / 1e3,
		"topology.build_us":                    us("topology.build"),
		"routing.router_build_us":              us("routing.router"),
		"analysis.lemma1_ms":                   ms("analysis.lemma1"),
		"analysis.analyze_pattern_us":          perWork("analysis.analyze_pattern") / 1e3,
		"routing.route_table_build_us":         us("routing.route_table"),
		"routing.route_table_entries":          ratio(float64(st("routing.route_table").work), float64(st("routing.route_table").count)),
		"permutation.enumerate_ns_per_pattern": side.enumNs,
		"permutation.orbit_ns_per_rep":         side.orbitNs,
		"analysis.delta_swap_ns":               side.swapNs,
		"analysis.sweep_patterns_per_s":        sweepRate(ws, ps),
		"analysis.parallel_speedup":            side.speedup,
		"analysis.sym_fallbacks":               float64(sumDeltas(deltas, func(d *server.MetricsSnapshot) int64 { return d.SymFallbacks })),
		"campaign.sample_us":                   us("campaign.sample"),
		"topology.failure_view_us":             us("topology.failure_view"),
		"routing.fault_router_rebuilds":        ratio(float64(countIn(camp, "routing.fault_router")), float64(camp.campaigns)),
		"campaign.cell_us":                     us("campaign.cell"),
		"campaign.allocs_per_cell":             ratio(float64(camp.cellMallocs), float64(camp.cells)),
		"campaign.routed_ratio":                ratio(float64(camp.routed), float64(camp.attempted)),
		"sim.run_ms":                           ms("sim.run"),
		"design.plan_ms":                       ms("design.plan"),
		"design.tier0_share":                   ratio(float64(des.tier0), float64(des.candidates)),
		"design.memo_hit_ratio":                ratio(float64(des.memoHits), float64(des.memoHits+des.freshRuns)),
		"trace.coverage":                       coverage(work.tr.spans, deltas),
	}
	coordinatorValues(v, coordOuts, coordDeltas)
	wself, pself := selfTimes(work.tr.spans), selfTimes(probe.tr.spans)
	for _, l := range traceLayers {
		val := ratio(float64(wself[l]), float64(replayed)) / 1e6
		if wself[l] == 0 {
			val = ratio(float64(pself[l]), float64(probeRoots(probe.tr.spans))) / 1e6
		}
		v["self."+l+"_ms"] = val
	}
	return v
}

func coordinatorValues(v map[string]float64, outs []outcome, deltas []*server.MetricsSnapshot) {
	var coord, single []float64
	sweeps := 0
	for _, o := range outs {
		switch o.class {
		case "coord-sweep9":
			coord = append(coord, float64(o.latency)/1e6)
			sweeps++
		case "coord-sym12":
			sweeps++
		case "sweep9":
			single = append(single, float64(o.latency)/1e6)
		}
	}
	var shardLat sim.Histogram
	for _, d := range deltas[1:] {
		shardLat.Add(d.JobLatency)
	}
	v["coordinator.shards"] = ratio(float64(deltas[0].ShardsDispatched), float64(sweeps))
	v["coordinator.shards_retried"] = float64(deltas[0].ShardsRetried)
	v["coordinator.shard_ms_p50"] = histQuantile(&shardLat, 0.5) / 1e3
	v["coordinator.overhead_ms"] = mean(coord) - mean(single)
}

// missOverheadMs is the mean client latency of single-request cache
// misses minus the mean job run time on the front node: what HTTP,
// decoding, queueing and the store add to a computed answer.
func missOverheadMs(outs []outcome, front *server.MetricsSnapshot) float64 {
	var lat []float64
	for _, o := range outs {
		if o.err == nil && o.cache == "miss" && !isMulti(o.class) {
			lat = append(lat, float64(o.latency)/1e6)
		}
	}
	return mean(lat) - front.JobLatency.Mean()/1e3
}

// isMulti reports classes whose one request is not one job: coordinated
// sweeps, batches and design plans.
func isMulti(class string) bool {
	switch class {
	case "coord-sweep9", "coord-sym12", "verify-batch", "design-pareto", "design-smoke":
		return true
	}
	return false
}

// coverage is the traced time inside replayed jobs over the job time the
// untraced window's nodes recorded for the same requests.
func coverage(spans []span, deltas []*server.MetricsSnapshot) float64 {
	var traced int64
	for _, s := range spans {
		if s.parent >= 0 && spans[s.parent].name == "server.job" {
			traced += s.end - s.start
		}
	}
	untraced := sumDeltas(deltas, func(d *server.MetricsSnapshot) int64 { return d.JobLatency.Sum })
	return ratio(float64(traced), float64(untraced)*1e3)
}

func sweepRate(ws, ps map[string]spanStat) float64 {
	pick := ws
	if ws["analysis.sweep"].count+ws["analysis.shard"].count == 0 {
		pick = ps
	}
	a, b := pick["analysis.sweep"], pick["analysis.shard"]
	return ratio(float64(a.work+b.work), float64(a.totalNs+b.totalNs)) * 1e9
}

func countIn(rp *replayer, name string) int {
	n := 0
	for _, s := range rp.tr.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

func probeRoots(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.parent < 0 {
			n++
		}
	}
	return n
}

func sumDeltas(ds []*server.MetricsSnapshot, f func(*server.MetricsSnapshot) int64) int64 {
	var t int64
	for _, d := range ds {
		t += f(d)
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histQuantile is a /metrics histogram's p-quantile, interpolated inside
// its bucket: the histogram's own Quantile reports bucket lower bounds,
// which would read identically across runs. Bucket widths follow
// sim.Histogram's layout: exact below 4096, sixteen log-linear
// sub-buckets per power of two above.
func histQuantile(h *sim.Histogram, p float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	var enc struct {
		Buckets [][2]int64 `json:"buckets"`
	}
	b, err := json.Marshal(h)
	if err != nil || json.Unmarshal(b, &enc) != nil {
		return float64(h.Quantile(p))
	}
	rank := p * float64(h.Count-1)
	var cum int64
	for _, bk := range enc.Buckets {
		lower, n := bk[0], bk[1]
		if float64(cum+n) > rank {
			width := int64(1)
			if lower >= 4096 {
				width = int64(1) << (bits.Len64(uint64(lower)) - 1 - 4)
			}
			return float64(lower) + (rank-float64(cum)+0.5)/float64(n)*float64(width)
		}
		cum += n
	}
	return float64(h.Max)
}
