package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// percentile is the sort-based quantile the open-loop engine used before
// the histogram. It survives here as the test oracle: the engines now
// report quantiles from Histogram, and these tests (plus the open-loop
// oracle) pin the histogram against the full sort.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int64(nil), xs...)
	slices.Sort(cp)
	idx := int(math.Ceil(p * float64(len(cp)-1)))
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count != 0 || h.Mean() != 0 || h.P50() != 0 || h.P99() != 0 || h.P999() != 0 {
		t.Fatalf("empty histogram must report zeros: %+v", h)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(7)
	if h.Count != 1 || h.Min != 7 || h.Max != 7 || h.Sum != 7 {
		t.Fatalf("single sample: %+v", h)
	}
	for _, p := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(p); got != 7 {
			t.Errorf("Quantile(%v) = %d, want 7", p, got)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Exactness below the linear/log-linear switch, containment above.
	boundaries := []int64{
		0, 1, 2, 3, 4094, 4095, // linear region
		4096, 4097, 4351, 4352, // first log-linear octave and its sub-bucket edge
		8191, 8192, 1 << 20, 1<<20 + 12345, 1 << 62, math.MaxInt64,
	}
	for _, v := range boundaries {
		i := histIndex(v)
		if i < 0 || i >= HistogramBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		if lo := histLower(i); lo > v {
			t.Errorf("histLower(histIndex(%d)) = %d > value", v, lo)
		}
		if i+1 < HistogramBuckets {
			if hi := histLower(i + 1); v >= hi {
				t.Errorf("value %d >= next bucket lower bound %d", v, hi)
			}
		}
		if v < 4096 && histLower(i) != v {
			t.Errorf("linear region must be exact: value %d got bucket lower %d", v, histLower(i))
		}
	}
	// Bucket lower bounds are strictly increasing.
	for i := 1; i < HistogramBuckets; i++ {
		if histLower(i) <= histLower(i-1) {
			t.Fatalf("histLower not increasing at %d: %d <= %d", i, histLower(i), histLower(i-1))
		}
	}
}

func TestHistogramQuantileMatchesSortBelowLinear(t *testing.T) {
	// In the one-cycle-bucket region the histogram quantile must equal the
	// sort-based percentile for every rank convention input.
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 10, 100, 1000} {
		var h Histogram
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(4096)
			h.Observe(xs[i])
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := h.Quantile(p), percentile(xs, p); got != want {
				t.Errorf("n=%d p=%v: histogram %d, sort %d", n, p, got, want)
			}
		}
	}
}

func TestHistogramQuantileLargeValuesBounded(t *testing.T) {
	// Above the linear region the quantile is the containing bucket's lower
	// bound: never above the exact value, within 1/16 relative error.
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	xs := make([]int64, 500)
	for i := range xs {
		xs[i] = 4096 + rng.Int63n(1<<30)
		h.Observe(xs[i])
	}
	for _, p := range []float64{0, 0.5, 0.99, 0.999, 1} {
		got, exact := h.Quantile(p), percentile(xs, p)
		if got > exact {
			t.Errorf("p=%v: histogram %d overestimates exact %d", p, got, exact)
		}
		if histSub*(exact-got) > exact {
			t.Errorf("p=%v: histogram %d off exact %d by more than 1/%d", p, got, exact, histSub)
		}
	}
}

func TestHistogramP999TinySamples(t *testing.T) {
	// P999 on a handful of samples must follow the sort's rank convention
	// (the maximum, for n <= 1000 with distinct ranks).
	for _, n := range []int{1, 2, 3, 5, 10} {
		var h Histogram
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(10 * (i + 1))
			h.Observe(xs[i])
		}
		if got, want := h.P999(), percentile(xs, 0.999); got != want {
			t.Errorf("n=%d: P999 %d, want %d", n, got, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var all, a, b Histogram
	for i := 0; i < 400; i++ {
		v := rng.Int63n(1 << 16)
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Add(&b)
	if !reflect.DeepEqual(a, all) {
		t.Fatal("merged histogram differs from the single-pass histogram")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 16, 16, 4095, 4096, 100000, 1 << 40} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, back) {
		t.Fatalf("histogram JSON round trip drifted:\n got  %+v\n want %+v", back, h)
	}
}

// captureCollector is a custom Collector recording raw delivered latencies;
// it exercises the interface seam the engines expose to non-default
// implementations.
type captureCollector struct {
	latencies []int64
}

func (c *captureCollector) BeginRun(nLinks int, packetFlits int64)          { c.latencies = c.latencies[:0] }
func (c *captureCollector) PacketQueued(topology.LinkID, int32, int, int64) {}
func (c *captureCollector) PacketStarted(topology.LinkID, int32, int64)     {}
func (c *captureCollector) PacketDelivered(latency int64)                   { c.latencies = append(c.latencies, latency) }
func (c *captureCollector) AdaptiveChoice(bool)                             {}
func (c *captureCollector) EndRun(int64)                                    {}

func TestOpenLoopP99MatchesSortPercentile(t *testing.T) {
	// Golden parity: the histogram-backed P99 of the open-loop engine must
	// equal the sort-based percentile over the very latencies the run
	// delivered (captured through a custom collector), on both golden
	// configurations — the nonblocking rates and the saturated abort.
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	pairs := permPairsFor(permutation.SwitchShift(2, 5, 1))
	cap := &captureCollector{}
	for _, rate := range []float64{0.3, 1.0} {
		res, err := OpenLoop(f.Net, pairs, PairPathsFunc(r), OpenLoopConfig{
			PacketFlits: 4, Rate: rate, WarmupPackets: 5, MeasuredPackets: 30, Seed: 7,
			Collector: cap,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics != nil {
			t.Errorf("rate %v: custom collectors must not attach Metrics", rate)
		}
		if len(cap.latencies) != res.Delivered {
			t.Fatalf("rate %v: captured %d latencies, delivered %d", rate, len(cap.latencies), res.Delivered)
		}
		if got, want := res.P99Latency, percentile(cap.latencies, 0.99); got != want {
			t.Errorf("rate %v: P99 %d, sort percentile %d", rate, got, want)
		}
	}

	// Saturated golden: P99Latency 108 comes from the same convention.
	f2 := topology.NewFoldedClos(2, 2, 3)
	collide := &routing.FtreeSinglePath{F: f2, RouterName: "collide", TopChoice: func(s, d int) int { return 0 }}
	res, err := OpenLoop(f2.Net, [][2]int{{0, 4}, {2, 5}}, PairPathsFunc(collide), OpenLoopConfig{
		PacketFlits: 4, Rate: 1.0, WarmupPackets: 5, MeasuredPackets: 30, Seed: 7, MaxCycles: 200,
		Collector: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.P99Latency, percentile(cap.latencies, 0.99); got != want {
		t.Errorf("saturated: P99 %d, sort percentile %d", got, want)
	}
}

func TestEnsurePktIncrementalGrowth(t *testing.T) {
	// Packet pool indices grow one at a time, so ensurePkt sees n = len+1
	// repeatedly. append's byte-based size classes give the []uint8 stage
	// table different element capacities than the []int64 queuedAt table
	// (24 vs 32 around n = 25), so a shared capacity check reslices stage
	// past its capacity and panics. Regression test for that growth path.
	col := NewMetricsCollector()
	col.BeginRun(1, 1)
	for pkt := int32(0); pkt < 4096; pkt++ {
		col.ensurePkt(pkt)
		if len(col.queuedAt) != len(col.stage) {
			t.Fatalf("pkt %d: queuedAt len %d, stage len %d", pkt, len(col.queuedAt), len(col.stage))
		}
	}
	if len(col.queuedAt) != 4096 {
		t.Fatalf("grew to %d, want 4096", len(col.queuedAt))
	}
}

func TestMetricsQueueAccounting(t *testing.T) {
	// Two same-link packets at cycle 0 with L = 1: the first starts
	// immediately, the second waits one cycle. Pins the exact busy/queue/
	// stage accounting semantics of MetricsCollector.
	col := NewMetricsCollector()
	col.BeginRun(1, 1)
	c := newEventCore(1, 2, 1, OldestFirst, keyInjection)
	c.met = col
	c.enqueue(0, c.newPacket(corePacket{flow: 0}), 0, StageInjection)
	c.enqueue(0, c.newPacket(corePacket{flow: 1}), 0, StageInjection)
	for !c.empty() {
		e := c.pop()
		if e.pkt == linkFreeEvent {
			c.tryStart(e.link, e.time)
		}
	}
	col.EndRun(2)
	m := col.Metrics()
	wantLink := LinkStats{Busy: 2, QueueArea: 1, PeakQueue: 1}
	if m.Links[0] != wantLink {
		t.Errorf("link stats %+v, want %+v", m.Links[0], wantLink)
	}
	wantStage := StageStats{Hops: 2, Wait: 1, MaxWait: 1, Busy: 2}
	if m.Stages[StageInjection] != wantStage {
		t.Errorf("injection stage %+v, want %+v", m.Stages[StageInjection], wantStage)
	}
	if u := m.Utilization(0); u != 1 {
		t.Errorf("utilization %v, want 1", u)
	}
	if q := m.MeanQueue(0); q != 0.5 {
		t.Errorf("mean queue %v, want 0.5", q)
	}
}

func TestMetricsLemma1Signature(t *testing.T) {
	// Empirical Lemma 1: the paper's Theorem-3 routing is nonblocking, so
	// even on the permutation that maximizes load on its busiest link no
	// packet ever waits past the injection stage, and every link's peak
	// queue beyond injection is at most one packet. The contended dest-mod
	// routing on the same kind of pattern shows the opposite signature.
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := analysis.WorstCaseLinkLoad(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if wl.MaxLoad != 1 {
		t.Fatalf("paper routing worst-case load %d, want 1 (Theorem 3)", wl.MaxLoad)
	}
	p, err := analysis.WorstCasePermutationFor(r, f.Ports(), wl.Link)
	if err != nil {
		t.Fatal(err)
	}
	col := NewMetricsCollector()
	_, res, err := RunPermutation(f.Net, r, p, Config{PacketFlits: 4, PacketsPerPair: 6, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m == nil {
		t.Fatal("no metrics attached")
	}
	for _, s := range []int{StageUp, StageDown, StageDrain} {
		if m.Stages[s].Wait != 0 || m.Stages[s].MaxWait != 0 {
			t.Errorf("nonblocking routing: stage %s has wait %d (max %d), want 0",
				StageName(s), m.Stages[s].Wait, m.Stages[s].MaxWait)
		}
	}
	for l := range m.Links {
		if m.Links[l].Busy != res.LinkBusy[l] {
			t.Errorf("link %d: metrics busy %d != engine busy %d", l, m.Links[l].Busy, res.LinkBusy[l])
		}
		if u := m.Utilization(topology.LinkID(l)); u > 1 {
			t.Errorf("link %d: utilization %v > 1", l, u)
		}
	}
	if m.MaxUtilization() > 1 {
		t.Errorf("max utilization %v > 1", m.MaxUtilization())
	}

	// Contrast: a router that funnels every flow through top switch 0
	// blocks on the uplinks, and the metrics must say where — nonzero wait
	// in the up stage specifically.
	f2 := topology.NewFoldedClos(2, 2, 3)
	collide := &routing.FtreeSinglePath{F: f2, RouterName: "collide", TopChoice: func(s, d int) int { return 0 }}
	col2 := NewMetricsCollector()
	_, res2, err := RunPermutation(f2.Net, collide, permutation.SwitchShift(2, 3, 1),
		Config{PacketFlits: 3, PacketsPerPair: 4, Collector: col2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.Stages[StageUp].Wait == 0 {
		t.Error("blocking routing: expected nonzero wait in the up stage")
	}
}

func TestMetricsAdaptiveCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := topology.NewFoldedClos(2, 3, 6)
	p := permutation.Random(rng, f.Ports())
	cfg := Config{PacketFlits: 3, PacketsPerPair: 5}
	interSwitch := 0
	for _, pr := range p.Pairs() {
		if pr.Src/f.N != pr.Dst/f.N {
			interSwitch++
		}
	}
	for _, mode := range []AdaptMode{AdaptLocal, AdaptOracle} {
		col := NewMetricsCollector()
		c := cfg
		c.Collector = col
		res, err := RunFtreeAdaptive(f, p, c, mode)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if want := int64(interSwitch * cfg.PacketsPerPair); m.AdaptiveDecisions != want {
			t.Errorf("%v: %d adaptive decisions, want %d", mode, m.AdaptiveDecisions, want)
		}
		if m.AdaptiveDeflections < 0 || m.AdaptiveDeflections > m.AdaptiveDecisions {
			t.Errorf("%v: deflections %d outside [0, %d]", mode, m.AdaptiveDeflections, m.AdaptiveDecisions)
		}
		if m.Latency.Count != int64(res.Delivered) {
			t.Errorf("%v: histogram count %d, delivered %d", mode, m.Latency.Count, res.Delivered)
		}
	}
}

func TestMetricsZeroSteadyStateAllocs(t *testing.T) {
	// Attaching a warmed-up MetricsCollector must add no per-run
	// allocations over a collector-less run: the collector's scratch is
	// reused and the engines' hooks allocate nothing.
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Route(permutation.SwitchShift(2, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	flows := FlowsFromAssignment(a)
	off := Config{PacketFlits: 2, PacketsPerPair: 8}
	on := off
	on.Collector = NewMetricsCollector()
	run := func(cfg Config) {
		if _, err := Run(f.Net, flows, cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocsOff := testing.AllocsPerRun(20, func() { run(off) })
	allocsOn := testing.AllocsPerRun(20, func() { run(on) })
	if allocsOn > allocsOff {
		t.Errorf("metrics-on run allocates %.1f/run, metrics-off %.1f/run", allocsOn, allocsOff)
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// P999 is the 99.9th-percentile latency.
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// MeanQueue is link l's time-weighted mean queue depth.
func (m *Metrics) MeanQueue(l topology.LinkID) float64 {
	if m.Wall == 0 {
		return 0
	}
	return float64(m.Links[l].QueueArea) / float64(m.Wall)
}

// Metrics exposes the collector's record of the last (or in-progress) run.
// The returned pointer aliases collector-owned memory that the next
// BeginRun recycles — Clone it to keep metrics across runs.
func (c *MetricsCollector) Metrics() *Metrics { return &c.m }
