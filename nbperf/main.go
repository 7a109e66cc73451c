// Command nbperf is the repository's benchmark: a single-process load
// generator that starts the nbserve handler (internal/server) in process
// on loopback listeners, drives one workload as a closed loop over a
// request stream made from a seed, checks every answer, and prints the
// end-to-end metrics. With --trace 1 it instead replays the same stream
// through the public functions of each layer, with spans, and prints the
// per-layer metrics (layers.go).
//
// Usage, from the repository root:
//
//	bash nbperf/run.sh --workload verify-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every request succeeded with the expected answer.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/server"
)

// setupReps is how many times a measured run sets its nodes up; setup_s
// is the median.
const setupReps = 3

// endToEnd lists the metrics of an untraced run, with their units and
// directions (BENCHMARK.json mirrors this table). error_rate is printed
// but not listed: every workload is built to have none, and a failed or
// wrong answer already fails the run.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"alloc_kb_per_req", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nbperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: verify-mix | certify-sweep | degrade-design")
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 replays the stream with spans and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build", "directory the span dump of a traced run is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "nbperf: need --workload (verify-mix, certify-sweep, degrade-design), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "nbperf workload=%s seed=%d seconds=%d trace=%d clients=%d\n", w.name, *seed, *seconds, *trace, w.clients)
	fmt.Fprintf(stdout, "load: closed loop, %d client(s), at most 2 keep-alive connections per node; traffic crosses the host's loopback interface (127.0.0.1)\n", w.clients)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(stdout, stderr, w, *seed, dur, *traceDir)
	} else {
		res, err = runMeasured(stdout, stderr, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "nbperf: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "nbperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// setUp starts the workload's nodes, waits for /healthz and runs the
// warm-up pass, checking its answers.
func setUp(w *workload, hc *http.Client) (*cluster, error) {
	c, err := startCluster(w)
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(hc, c); err != nil {
		c.close()
		return nil, err
	}
	for _, r := range w.warmup() {
		if o := do(context.Background(), hc, c.front.url, &r); o.err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up %s: %w", r.Class, o.err)
		}
	}
	return c, nil
}

// runMeasured is the untraced run: set up setupReps times, measure one
// closed-loop window, check every answer and report the end-to-end
// metrics.
func runMeasured(stdout, stderr io.Writer, w *workload, seed int64, dur time.Duration) (*result, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var setups []float64
	var c *cluster
	for k := 0; k < setupReps; k++ {
		if c != nil {
			c.close()
			hc.CloseIdleConnections()
		}
		t0 := time.Now()
		var err error
		if c, err = setUp(w, hc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	runtime.GC()
	before, err := scrape(hc, c)
	if err != nil {
		return nil, err
	}
	cpu0, alloc0 := cpuTime(), heapAllocBytes()
	win := runWindow(hc, c.front.url, w.clients, dur, func(i int) request { return w.gen(seed, i) }, false)
	cpu1, alloc1 := cpuTime(), heapAllocBytes()
	after, err := scrape(hc, c)
	if err != nil {
		return nil, err
	}

	failed := reportFailures(stderr, win.outcomes)
	failed += crossCheck(stderr, win.outcomes, w, seed)
	correct := failed == 0
	if err := checkQueues(after); err != nil {
		fmt.Fprintf(stderr, "nbperf: %v\n", err)
		correct = false
	}

	var lat []float64
	for _, o := range win.outcomes {
		if o.err == nil {
			lat = append(lat, float64(o.latency)/float64(time.Millisecond))
		}
	}
	sort.Float64s(lat)
	n := len(win.outcomes)
	tp, beyond, ok := tailPercentile(len(lat))
	if !ok {
		return nil, fmt.Errorf("only %d successful requests: too few for a tail percentile; raise --seconds", len(lat))
	}
	vals := map[string]float64{
		"setup_s":          median(setups),
		"throughput_rps":   float64(len(lat)) / win.wall.Seconds(),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_tail_ms":  quantile(lat, tp),
		"cpu_ms_per_req":   float64(cpu1-cpu0) / float64(time.Millisecond) / float64(n),
		"alloc_kb_per_req": float64(alloc1-alloc0) / 1024 / float64(n),
		"peak_rss_mb":      peakRSSBytes() / (1 << 20),
	}
	m := map[string]metric{}
	for _, e := range endToEnd {
		m[e.name] = metric{vals[e.name], e.unit}
	}
	fmt.Fprintf(stdout, "requests: attempted %d, failed %d, error_rate %g, window %.3f s\n",
		n, failed, float64(failed)/float64(n), win.wall.Seconds())
	fmt.Fprintf(stdout, "latency_tail_ms is p%g over %d samples, %d beyond it\n", tp*100, len(lat), beyond)
	fmt.Fprintf(stdout, "latency percentiles: %s\n", latencyLine(lat))
	fmt.Fprintf(stdout, "setup_s runs: %v\n", fmtFloats(setups))
	printClasses(stdout, win.outcomes)
	printDeltas(stdout, before, after)
	for _, e := range endToEnd {
		fmt.Fprintf(stdout, "%-18s %14.6f %s\n", e.name, m[e.name].Value, e.unit)
	}
	return &result{Correct: correct, Attempted: n, Failed: failed, Metrics: m}, nil
}

// reportFailures counts failed outcomes and prints the first few.
func reportFailures(stderr io.Writer, outs []outcome) int {
	failed := 0
	for _, o := range outs {
		if o.err == nil {
			continue
		}
		if failed < 5 {
			fmt.Fprintf(stderr, "nbperf: request %d (%s): %v\n", o.index, o.class, o.err)
		}
		failed++
	}
	return failed
}

// crossCheck holds answers that must agree across paths: a coordinated
// sweep with the single-node sweep of the same body, and the first
// campaign of each scenario with a direct campaign.Run of the same
// configuration (a campaign report is a pure function of its seed). Each
// disagreement counts as one more failed request.
func crossCheck(stderr io.Writer, outs []outcome, w *workload, seed int64) int {
	failed := 0
	fail := func(o outcome, format string, args ...any) {
		fmt.Fprintf(stderr, "nbperf: request %d (%s): %s\n", o.index, o.class, fmt.Sprintf(format, args...))
		failed++
	}
	first := map[string][]byte{}
	for _, o := range outs {
		if o.err == nil && first[o.class] == nil {
			first[o.class] = o.body
		}
	}
	rechecked := map[string]bool{}
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if single, ok := strings.CutPrefix(o.class, "coord-"); ok && first[single] != nil &&
			!bytes.Equal(bytes.TrimSpace(o.body), bytes.TrimSpace(first[single])) {
			fail(o, "coordinated answer differs from the single-node %s answer", single)
		}
		r := w.gen(seed, o.index)
		if r.Path != "/v1/failures" || rechecked[o.class] {
			continue
		}
		rechecked[o.class] = true
		var q api.Request
		if err := json.Unmarshal(r.Body, &q); err != nil {
			fail(o, "decode own request: %v", err)
			continue
		}
		want, err := runCampaign(&q)
		if err != nil {
			fail(o, "direct campaign run: %v", err)
		} else if !bytes.Equal(bytes.TrimSpace(o.body), want) {
			fail(o, "campaign report differs from a direct run with the same seed")
		}
	}
	return failed
}

// runCampaign runs a failures request's campaign directly, configured as
// the server configures it, and returns the encoded report.
func runCampaign(q *api.Request) ([]byte, error) {
	fr := q.Failures
	rep, err := campaign.Run(context.Background(), campaign.Config{
		N: q.N, M: q.M, R: q.R, Scenario: campaign.Scenario(fr.Scenario),
		MaxFailures: fr.MaxFailures, Samples: fr.Samples, Trials: fr.Trials, Schemes: fr.Schemes,
		Seed: q.SeedValue(), Workers: q.Workers, Sim: fr.Sim, SimFlits: q.Flits, SimPackets: q.Pkts,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// checkQueues asserts every node's job queue drained after the window.
func checkQueues(after []*server.MetricsSnapshot) error {
	var errs []error
	for i, s := range after {
		if s.QueueDepth != 0 {
			errs = append(errs, fmt.Errorf("node %d: queue_depth %d after the window", i, s.QueueDepth))
		}
	}
	return errors.Join(errs...)
}

func printClasses(stdout io.Writer, outs []outcome) {
	type agg struct {
		n, hits int
		sum     time.Duration
	}
	by := map[string]*agg{}
	for _, o := range outs {
		a := by[o.class]
		if a == nil {
			a = &agg{}
			by[o.class] = a
		}
		a.n++
		a.sum += o.latency
		if o.cache == "hit" {
			a.hits++
		}
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := by[k]
		fmt.Fprintf(stdout, "class %-26s n=%-6d hits=%-6d mean_ms=%.3f\n", k, a.n, a.hits, float64(a.sum)/float64(a.n)/1e6)
	}
}

// printDeltas prints each node's /metrics counters over the window.
func printDeltas(stdout io.Writer, before, after []*server.MetricsSnapshot) {
	for i := range after {
		d := deltaOf(before[i], after[i])
		role := "front"
		if i > 0 {
			role = fmt.Sprintf("worker%d", i)
		}
		fmt.Fprintf(stdout, "/metrics %s: jobs_run=%d jobs_rejected=%d store_hits=%d store_misses=%d store_puts=%d batch_deduped=%d shards_dispatched=%d shards_retried=%d sym_sweeps=%d sym_fallbacks=%d job_p50_us=%d queue_depth=%d\n",
			role, d.JobsRun, d.JobsRejected, d.StoreHits, d.StoreMisses, d.StorePuts, d.BatchDeduped,
			d.ShardsDispatched, d.ShardsRetried, d.SymSweeps, d.SymFallbacks, d.JobLatency.P50(), after[i].QueueDepth)
	}
}

// deltaOf subtracts two snapshots of one node's counters, histogram
// included (its buckets are plain counts).
func deltaOf(a, b *server.MetricsSnapshot) *server.MetricsSnapshot {
	d := &server.MetricsSnapshot{
		JobsRun: b.JobsRun - a.JobsRun, JobsRejected: b.JobsRejected - a.JobsRejected,
		StoreHits: b.StoreHits - a.StoreHits, StoreMisses: b.StoreMisses - a.StoreMisses,
		StorePuts: b.StorePuts - a.StorePuts, BatchDeduped: b.BatchDeduped - a.BatchDeduped,
		ShardsDispatched: b.ShardsDispatched - a.ShardsDispatched, ShardsRetried: b.ShardsRetried - a.ShardsRetried,
		SymSweeps: b.SymSweeps - a.SymSweeps, SymFallbacks: b.SymFallbacks - a.SymFallbacks,
		QueueDepth: b.QueueDepth,
	}
	h := *b.JobLatency
	h.Count -= a.JobLatency.Count
	h.Sum -= a.JobLatency.Sum
	h.Min = 0
	for i := range h.Buckets {
		h.Buckets[i] -= a.JobLatency.Buckets[i]
	}
	d.JobLatency = &h
	return d
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
