package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/topology"
)

// Observability layer for the dense event core. The paper's claims are
// per-link claims — Lemma 1's one-source/one-destination condition says a
// nonblocking routing puts at most one flow of a permutation on every
// link — so the scalar aggregates of Result/OpenLoopResult (makespan, mean
// latency) cannot show *where* a blocking routing loses throughput. A
// Collector attached to a run records exactly the quantities the per-link
// condition speaks about: busy cycles and queue occupancy per link, the
// hop-latency breakdown per pipeline stage, and the full end-to-end
// latency distribution. The default MetricsCollector is pooled and
// allocation-free in the steady state; with no collector attached the
// engines skip every hook behind one nil check, so metrics cost nothing
// when off.

// Pipeline stages of a folded-Clos traversal. The engines classify each
// hop by its position on the packet's path (hopStage); the adaptive engine
// uses its pipeline stage directly. Single-hop paths (the crossbar
// reference) count as StageInjection; the trunk hops of deeper topologies
// (three-level m-port n-trees) fold into StageUp/StageDown by path half.
const (
	// StageInjection is the host → bottom-switch uplink.
	StageInjection = 0
	// StageUp covers bottom → top trunk hops.
	StageUp = 1
	// StageDown covers top → bottom trunk hops.
	StageDown = 2
	// StageDrain is the bottom-switch → host downlink.
	StageDrain = 3
	// NumStages is the stage count.
	NumStages = 4
)

// StageName names a pipeline stage for reports and JSON.
func StageName(s int) string {
	switch s {
	case StageInjection:
		return "injection"
	case StageUp:
		return "up"
	case StageDown:
		return "down"
	case StageDrain:
		return "drain"
	default:
		return fmt.Sprintf("stage%d", s)
	}
}

// hopStage maps hop index `hop` of a pathLen-hop path to a pipeline stage:
// the first hop is injection, the last is drain, and the trunk hops in
// between split up/down at the path midpoint (an up/down fat-tree route
// ascends for the first half of its trunk hops and descends for the rest).
func hopStage(hop, pathLen int) int {
	switch {
	case hop == 0:
		return StageInjection
	case hop == pathLen-1:
		return StageDrain
	case hop <= (pathLen-1)/2:
		return StageUp
	default:
		return StageDown
	}
}

// Histogram bucket layout: latencies below histLinear cycles get one
// bucket per cycle (quantiles are exact there — every closed testbed
// latency in this repository fits), and larger values get histSub
// log-linear sub-buckets per power of two (relative error ≤ 1/histSub).
const (
	histLinear   = 4096            // one-cycle buckets for values < 4096
	histSub      = 16              // sub-buckets per power of two above
	histSubShift = 4               // log2(histSub)
	histMinExp   = 12              // log2(histLinear)
	histOctaves  = 63 - histMinExp // exponents 12..62 cover all non-negative int64
	// HistogramBuckets is the fixed bucket count of every Histogram.
	HistogramBuckets = histLinear + histOctaves*histSub
)

// histIndex returns the bucket index of value v (negative values clamp
// to bucket 0).
func histIndex(v int64) int {
	if v < histLinear {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= histMinExp
	sub := int(v>>(uint(e)-histSubShift)) & (histSub - 1)
	return histLinear + (e-histMinExp)*histSub + sub
}

// histLower returns the smallest value that maps to bucket i.
func histLower(i int) int64 {
	if i < histLinear {
		return int64(i)
	}
	i -= histLinear
	e := i/histSub + histMinExp
	sub := i % histSub
	return int64(histSub+sub) << (uint(e) - histSubShift)
}

// Histogram is a fixed-size latency histogram: exact one-cycle buckets
// below 4096 cycles, 16 log-linear sub-buckets per power of two above.
// The zero value is ready to use; merging two histograms is element-wise
// addition (Add), so parallel shards merge deterministically.
type Histogram struct {
	// Count is the number of observations.
	Count int64
	// Sum accumulates observed values (Sum/Count is the mean).
	Sum int64
	// Min and Max are the exact extreme observations (Min is 0 when
	// Count is 0).
	Min int64
	// Max is the largest observation.
	Max int64
	// Buckets[i] counts observations v with histLower(i) <= v <
	// histLower(i+1).
	Buckets [HistogramBuckets]int64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[histIndex(v)]++
}

// Add merges o into h element-wise.
func (h *Histogram) Add(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i, c := range o.Buckets {
		if c != 0 {
			h.Buckets[i] += c
		}
	}
}

// Reset zeroes the histogram for reuse.
func (h *Histogram) Reset() { *h = Histogram{} }

// Mean is the average observed value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the p-quantile with the same rank convention as a full
// sort (index ceil(p·(Count−1)) of the sorted observations): exact below
// 4096, otherwise the containing bucket's lower bound clamped to Min. An
// empty histogram reports 0.
func (h *Histogram) Quantile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.Count-1)))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	if rank < 0 {
		rank = 0
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum > rank {
			v := histLower(i)
			if v < h.Min {
				v = h.Min // the bucket's occupants are all >= Min
			}
			return v
		}
	}
	return h.Max // unreachable: cum reaches Count
}

// P50 is the median latency.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P99 is the 99th-percentile latency.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// histBucketJSON is one non-empty bucket in the sparse JSON encoding.
type histogramJSON struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets"` // [bucket lower bound, count] pairs
}

// MarshalJSON encodes the histogram sparsely: only non-empty buckets are
// emitted, as [lower bound, count] pairs in ascending order.
func (h Histogram) MarshalJSON() ([]byte, error) {
	s := histogramJSON{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, Buckets: [][2]int64{}}
	for i, c := range h.Buckets {
		if c != 0 {
			s.Buckets = append(s.Buckets, [2]int64{histLower(i), c})
		}
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes the sparse encoding written by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var s histogramJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	h.Reset()
	h.Count, h.Sum, h.Min, h.Max = s.Count, s.Sum, s.Min, s.Max
	for _, b := range s.Buckets {
		h.Buckets[histIndex(b[0])] += b[1]
	}
	return nil
}

// LinkStats is the per-link record of one run.
type LinkStats struct {
	// Busy is the cycles the link spent transmitting.
	Busy int64 `json:"busy"`
	// QueueArea is the time integral of the link's queue depth
	// (packet·cycles); QueueArea / wall cycles is the mean depth.
	QueueArea int64 `json:"queue_area"`
	// PeakQueue is the maximum instantaneous queue depth.
	PeakQueue int32 `json:"peak_queue"`
}

// StageStats is the hop-latency breakdown of one pipeline stage.
type StageStats struct {
	// Hops counts link traversals that started in this stage.
	Hops int64 `json:"hops"`
	// Wait is the total cycles packets spent queued before service in
	// this stage; zero on every non-injection stage is the empirical
	// signature of a nonblocking (Lemma 1) routing.
	Wait int64 `json:"wait"`
	// MaxWait is the worst single queueing delay in this stage.
	MaxWait int64 `json:"max_wait"`
	// Busy is the total service cycles (Hops × packet length).
	Busy int64 `json:"busy"`
}

// Metrics is the observability payload of one simulation run (or a merge
// of several runs). All fields are plain data: merging two Metrics is
// element-wise (Merge) and deterministic, so the multi-run drivers give
// byte-identical aggregates for every worker count.
type Metrics struct {
	// Wall is the observed wall-clock extent in cycles (the last event
	// time); utilization and mean queue depths are normalized by it.
	// Merging runs sums their walls (phases execute back to back).
	Wall int64 `json:"wall_cycles"`
	// Links holds per-link stats indexed by LinkID.
	Links []LinkStats `json:"links"`
	// Stages is the per-stage hop-latency breakdown.
	Stages [NumStages]StageStats `json:"stages"`
	// Latency is the end-to-end packet latency distribution (measured
	// packets only in open loop; all packets in closed loop).
	Latency Histogram `json:"latency"`
	// AdaptiveDecisions counts per-packet adaptive trunk choices made by
	// RunFtreeAdaptive; AdaptiveDeflections counts the retries — choices
	// where congestion steered the packet off its preferred top switch.
	AdaptiveDecisions   int64 `json:"adaptive_decisions,omitempty"`
	AdaptiveDeflections int64 `json:"adaptive_deflections,omitempty"`
}

// Utilization is link l's busy fraction of the wall clock.
func (m *Metrics) Utilization(l topology.LinkID) float64 {
	if m.Wall == 0 {
		return 0
	}
	return float64(m.Links[l].Busy) / float64(m.Wall)
}

// MaxUtilization is the busiest link's utilization.
func (m *Metrics) MaxUtilization() float64 {
	var busiest int64
	for i := range m.Links {
		if m.Links[i].Busy > busiest {
			busiest = m.Links[i].Busy
		}
	}
	if m.Wall == 0 {
		return 0
	}
	return float64(busiest) / float64(m.Wall)
}

// Clone returns a deep copy detached from any collector.
func (m *Metrics) Clone() *Metrics {
	c := *m
	c.Links = append([]LinkStats(nil), m.Links...)
	return &c
}

// Merge folds o into m element-wise: busy cycles, queue areas, stage
// tallies, histograms and adaptive counters add; peak depths and maximum
// waits take the maximum; walls add (runs execute back to back).
func (m *Metrics) Merge(o *Metrics) {
	m.Wall += o.Wall
	if len(m.Links) < len(o.Links) {
		m.Links = append(m.Links, make([]LinkStats, len(o.Links)-len(m.Links))...)
	}
	for i := range o.Links {
		m.Links[i].Busy += o.Links[i].Busy
		m.Links[i].QueueArea += o.Links[i].QueueArea
		if o.Links[i].PeakQueue > m.Links[i].PeakQueue {
			m.Links[i].PeakQueue = o.Links[i].PeakQueue
		}
	}
	for s := range o.Stages {
		m.Stages[s].Hops += o.Stages[s].Hops
		m.Stages[s].Wait += o.Stages[s].Wait
		m.Stages[s].Busy += o.Stages[s].Busy
		if o.Stages[s].MaxWait > m.Stages[s].MaxWait {
			m.Stages[s].MaxWait = o.Stages[s].MaxWait
		}
	}
	m.Latency.Add(&o.Latency)
	m.AdaptiveDecisions += o.AdaptiveDecisions
	m.AdaptiveDeflections += o.AdaptiveDeflections
}

// Collector receives simulation events from the engines. All methods are
// invoked on the simulation goroutine in deterministic event order, and
// implementations must not mutate simulator state — a collector observes a
// run without perturbing it. The default implementation is
// MetricsCollector; custom implementations plug into the single-run
// engines (Run, RunFtreeAdaptive, OpenLoop), while the trial/sweep drivers
// always substitute pooled default collectors (see RunTrials).
type Collector interface {
	// BeginRun resets the collector for a run over nLinks links with
	// packetFlits-cycle link service times.
	BeginRun(nLinks int, packetFlits int64)
	// PacketQueued reports packet pkt (a dense per-run index) joining link
	// l's queue at cycle now, about to traverse pipeline stage `stage`.
	PacketQueued(l topology.LinkID, pkt int32, stage int, now int64)
	// PacketStarted reports link l beginning service of packet pkt at
	// cycle now; the packet's queueing delay is now minus its last
	// PacketQueued cycle.
	PacketStarted(l topology.LinkID, pkt int32, now int64)
	// PacketDelivered reports one end-to-end delivery with the given
	// latency (closed loop: delivery cycle; open loop: delivery −
	// injection, measured packets only).
	PacketDelivered(latency int64)
	// AdaptiveChoice reports one per-packet adaptive trunk decision;
	// deflected is set when congestion steered the packet off its
	// preferred top switch.
	AdaptiveChoice(deflected bool)
	// EndRun closes the run at the final event cycle.
	EndRun(wall int64)
}

// MetricsCollector is the default Collector: a reusable, pooled recorder
// whose scratch (per-link depth tracking, the histogram) is allocated once
// and recycled by BeginRun, so attaching it to repeated runs adds zero
// allocations in the steady state. It is not safe for concurrent use; the
// multi-run drivers draw one per run from an internal pool.
type MetricsCollector struct {
	m     Metrics
	L     int64
	depth []int32 // current queue depth per link
	last  []int64 // cycle of the last depth change per link
	// Per-packet wait tracking, indexed by the engines' dense packet pool
	// index. Grown on demand and recycled by length (not zeroed: every
	// started packet was queued first in the same run, overwriting any
	// stale slot before it is read).
	queuedAt []int64 // cycle the packet joined its current queue
	stage    []uint8 // pipeline stage of the packet's pending hop
}

// NewMetricsCollector returns an empty collector ready to attach to a
// Config.
func NewMetricsCollector() *MetricsCollector { return &MetricsCollector{} }

// BeginRun implements Collector.
func (c *MetricsCollector) BeginRun(nLinks int, packetFlits int64) {
	c.L = packetFlits
	if cap(c.m.Links) < nLinks {
		c.m.Links = make([]LinkStats, nLinks)
		c.depth = make([]int32, nLinks)
		c.last = make([]int64, nLinks)
	} else {
		c.m.Links = c.m.Links[:nLinks]
		c.depth = c.depth[:nLinks]
		c.last = c.last[:nLinks]
		for i := range c.m.Links {
			c.m.Links[i] = LinkStats{}
			c.depth[i] = 0
			c.last[i] = 0
		}
	}
	c.m.Wall = 0
	c.m.Stages = [NumStages]StageStats{}
	c.m.Latency.Reset()
	c.m.AdaptiveDecisions = 0
	c.m.AdaptiveDeflections = 0
	c.queuedAt = c.queuedAt[:0]
	c.stage = c.stage[:0]
}

// ensurePkt extends the per-packet tables to cover pool index pkt. The
// capacity persists across BeginRun, so repeated runs of similar size
// allocate nothing here in the steady state.
func (c *MetricsCollector) ensurePkt(pkt int32) {
	// The two tables are grown independently: append's byte-based size
	// classes give []uint8 and []int64 different element capacities for
	// the same length history, so one shared capacity check would reslice
	// the other table past its capacity.
	n := int(pkt) + 1
	if n > len(c.queuedAt) {
		if n <= cap(c.queuedAt) {
			c.queuedAt = c.queuedAt[:n]
		} else {
			c.queuedAt = append(c.queuedAt, make([]int64, n-len(c.queuedAt))...)
		}
	}
	if n > len(c.stage) {
		if n <= cap(c.stage) {
			c.stage = c.stage[:n]
		} else {
			c.stage = append(c.stage, make([]uint8, n-len(c.stage))...)
		}
	}
}

// advanceQueue integrates link l's queue depth up to cycle now.
func (c *MetricsCollector) advanceQueue(l topology.LinkID, now int64) {
	if dt := now - c.last[l]; dt > 0 {
		c.m.Links[l].QueueArea += int64(c.depth[l]) * dt
		c.last[l] = now
	}
}

// PacketQueued implements Collector.
func (c *MetricsCollector) PacketQueued(l topology.LinkID, pkt int32, stage int, now int64) {
	c.ensurePkt(pkt)
	c.queuedAt[pkt] = now
	c.stage[pkt] = uint8(stage)
	c.advanceQueue(l, now)
	c.depth[l]++
	if c.depth[l] > c.m.Links[l].PeakQueue {
		c.m.Links[l].PeakQueue = c.depth[l]
	}
}

// PacketStarted implements Collector.
func (c *MetricsCollector) PacketStarted(l topology.LinkID, pkt int32, now int64) {
	c.advanceQueue(l, now)
	c.depth[l]--
	c.m.Links[l].Busy += c.L
	wait := now - c.queuedAt[pkt]
	s := &c.m.Stages[c.stage[pkt]]
	s.Hops++
	s.Wait += wait
	s.Busy += c.L
	if wait > s.MaxWait {
		s.MaxWait = wait
	}
}

// PacketDelivered implements Collector.
func (c *MetricsCollector) PacketDelivered(latency int64) {
	c.m.Latency.Observe(latency)
}

// AdaptiveChoice implements Collector.
func (c *MetricsCollector) AdaptiveChoice(deflected bool) {
	c.m.AdaptiveDecisions++
	if deflected {
		c.m.AdaptiveDeflections++
	}
}

// EndRun implements Collector.
func (c *MetricsCollector) EndRun(wall int64) {
	c.m.Wall = wall
	for l := range c.m.Links {
		c.advanceQueue(topology.LinkID(l), wall)
	}
}

// collectorPool recycles MetricsCollectors across driver runs so that
// trial loops and parallel workers allocate collectors only on first use.
var collectorPool = sync.Pool{New: func() any { return &MetricsCollector{} }}

func acquireCollector() *MetricsCollector  { return collectorPool.Get().(*MetricsCollector) }
func releaseCollector(c *MetricsCollector) { collectorPool.Put(c) }

// metricsOf returns the live metrics of the run's collector when it is the
// default implementation; custom collectors own their data, so results
// carry no Metrics for them.
func metricsOf(col Collector) *Metrics {
	if mc, ok := col.(*MetricsCollector); ok {
		return &mc.m
	}
	return nil
}
