package sim

import (
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func openCfg(rate float64) OpenLoopConfig {
	return OpenLoopConfig{
		PacketFlits:     4,
		Rate:            rate,
		WarmupPackets:   5,
		MeasuredPackets: 30,
		Seed:            7,
		Arbiter:         RoundRobin,
	}
}

func permPairsFor(p *permutation.Permutation) [][2]int {
	dst := make([]int, p.N())
	for i := 0; i < p.N(); i++ {
		dst[i] = p.Dst(i)
	}
	return PermPairs(dst)
}

func TestOpenLoopLowLoadLatencyNearZeroQueueing(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	pairs := permPairsFor(permutation.SwitchShift(2, 5, 1))
	res, err := OpenLoop(f.Net, pairs, PairPathsFunc(r), openCfg(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("saturated at 5% load")
	}
	if res.Delivered != 30*len(pairs) {
		t.Fatalf("delivered %d, want %d", res.Delivered, 30*len(pairs))
	}
	// Zero contention: latency must equal the pure path time, 4 hops × 4
	// flits = 16 cycles, for almost every packet (no queueing at 5%).
	if res.MeanLatency < 16 || res.MeanLatency > 17 {
		t.Fatalf("mean latency %.2f, want ≈16 (no queueing)", res.MeanLatency)
	}
}

func TestOpenLoopNonblockingSustainsFullLoad(t *testing.T) {
	// The nonblocking routing must accept ~100% offered load on a
	// permutation: accepted ≈ offered at rate 1.0.
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	pairs := permPairsFor(permutation.SwitchShift(2, 5, 1))
	res, err := OpenLoop(f.Net, pairs, PairPathsFunc(r), openCfg(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("nonblocking routing saturated on a permutation")
	}
	if res.AcceptedLoad < 0.9 {
		t.Fatalf("accepted load %.2f at offered 1.0", res.AcceptedLoad)
	}
}

func TestOpenLoopContendedSaturatesBelowFullLoad(t *testing.T) {
	// Force two flows through one downlink: each can get at most half
	// the link, so accepted load ≈ 0.5 and latency grows.
	f := topology.NewFoldedClos(2, 2, 3)
	collide := &routing.FtreeSinglePath{F: f, RouterName: "collide", TopChoice: func(s, d int) int { return 0 }}
	pairs := [][2]int{{0, 4}, {2, 5}}
	res, err := OpenLoop(f.Net, pairs, PairPathsFunc(collide), openCfg(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedLoad > 0.7 {
		t.Fatalf("accepted load %.2f; expected ≈0.5 under 2-way downlink sharing", res.AcceptedLoad)
	}
	low, err := OpenLoop(f.Net, pairs, PairPathsFunc(collide), openCfg(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if low.MeanLatency >= res.MeanLatency {
		t.Fatalf("latency should rise with load: %.1f at 0.3 vs %.1f at 1.0", low.MeanLatency, res.MeanLatency)
	}
}

func TestOpenLoopMultipathAdapter(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	spray := routing.NewFullSpray(f)
	pairs := permPairsFor(permutation.SwitchShift(2, 4, 1))
	res, err := OpenLoop(f.Net, pairs, spray.PathsFor, openCfg(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestOpenLoopAssignmentAdapter(t *testing.T) {
	f := topology.NewFoldedClos(2, 12, 4)
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	p := permutation.SwitchShift(2, 4, 1)
	a, err := ad.Route(p)
	if err != nil {
		t.Fatal(err)
	}
	pf := AssignmentPathsFunc(a)
	pairs := permPairsFor(p)
	res, err := OpenLoop(f.Net, pairs, pf, openCfg(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedLoad < 0.9 || res.Saturated {
		t.Fatalf("adaptive nonblocking assignment should sustain full load: %.2f", res.AcceptedLoad)
	}
	if _, err := pf(0, 3); err == nil {
		t.Fatal("missing pair should error")
	}
}

func TestLoadSweepMonotoneLatency(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 4)
	r := routing.NewDestMod(f)
	pairs := permPairsFor(permutation.LocalRotate(2, 4))
	points, err := LoadSweepParallel(f.Net, pairs, PairPathsFunc(r), []float64{0.1, 0.5, 1.0}, openCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatal("points missing")
	}
	if points[0].MeanLatency > points[2].MeanLatency {
		t.Fatalf("latency not increasing with load: %.1f -> %.1f", points[0].MeanLatency, points[2].MeanLatency)
	}
	for _, pt := range points {
		if pt.P99Latency < int64(pt.MeanLatency)-1 {
			t.Fatalf("p99 %d below mean %.1f", pt.P99Latency, pt.MeanLatency)
		}
	}
}

func TestOpenLoopConfigValidation(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 2}}
	bad := []OpenLoopConfig{
		{PacketFlits: 0, Rate: 0.5, MeasuredPackets: 1},
		{PacketFlits: 1, Rate: 0, MeasuredPackets: 1},
		{PacketFlits: 1, Rate: 1.5, MeasuredPackets: 1},
		{PacketFlits: 1, Rate: 0.5, MeasuredPackets: 0},
		{PacketFlits: 1, Rate: 0.5, MeasuredPackets: 1, WarmupPackets: -1},
	}
	for i, cfg := range bad {
		if _, err := OpenLoop(f.Net, pairs, PairPathsFunc(r), cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	// Invalid path surfaces.
	badPaths := func(s, d int) ([]topology.Path, error) {
		return []topology.Path{{Nodes: []topology.NodeID{0, 1}, Links: []topology.LinkID{999}}}, nil
	}
	if _, err := OpenLoop(f.Net, pairs, badPaths, openCfg(0.5)); err == nil {
		t.Error("invalid path accepted")
	}
	empty := func(s, d int) ([]topology.Path, error) { return nil, nil }
	if _, err := OpenLoop(f.Net, pairs, empty, openCfg(0.5)); err == nil {
		t.Error("empty path set accepted")
	}
}

func TestOpenLoopSelfPairsDeliverInstantly(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OpenLoop(f.Net, [][2]int{{1, 1}}, PairPathsFunc(r), openCfg(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 30 || res.MeanLatency != 0 {
		t.Fatalf("self pair: delivered=%d latency=%.1f", res.Delivered, res.MeanLatency)
	}
}

func TestOpenLoopSaturationReportsUndelivered(t *testing.T) {
	// Aborting at MaxCycles with packets in flight must set Saturated and
	// report the in-flight count; a completed run must report neither.
	f := topology.NewFoldedClos(2, 2, 3)
	collide := &routing.FtreeSinglePath{F: f, RouterName: "collide", TopChoice: func(s, d int) int { return 0 }}
	pairs := [][2]int{{0, 4}, {2, 5}}
	cfg := openCfg(1.0)
	cfg.MaxCycles = 200
	res, err := OpenLoop(f.Net, pairs, PairPathsFunc(collide), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.Undelivered == 0 {
		t.Fatalf("aborted run: Saturated=%v Undelivered=%d, want true and >0", res.Saturated, res.Undelivered)
	}
	full, err := OpenLoop(f.Net, pairs, PairPathsFunc(collide), openCfg(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if full.Saturated || full.Undelivered != 0 {
		t.Fatalf("completed run: Saturated=%v Undelivered=%d, want false and 0", full.Saturated, full.Undelivered)
	}
}

func TestOpenLoopDegenerateWindowReportsOfferedLoad(t *testing.T) {
	// Self-pairs deliver at their injection instant, so the measurement
	// window is zero: the accepted load must equal the offered load (every
	// delivery kept pace with injection) instead of silently reporting 0.
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OpenLoop(f.Net, [][2]int{{1, 1}, {2, 2}}, PairPathsFunc(r), openCfg(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 60 {
		t.Fatalf("delivered %d, want 60", res.Delivered)
	}
	if res.AcceptedLoad != res.OfferedLoad {
		t.Fatalf("degenerate window: accepted %.3f, want offered %.3f", res.AcceptedLoad, res.OfferedLoad)
	}
}

func TestPermPairsSkipsSelfAndUnused(t *testing.T) {
	pairs := PermPairs([]int{1, 0, 2, -1})
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestPercentileHelper(t *testing.T) {
	if percentile([]int64{40, 10, 30, 20}, 0.99) != 40 {
		t.Fatal("p99 wrong")
	}
	if percentile([]int64{40, 10, 30, 20}, 0.5) != 30 {
		t.Fatal("p50 wrong")
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}
