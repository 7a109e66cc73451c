package sim

import (
	"math/rand"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// abortGolden is what a closed-loop run reports when MaxCycles cuts it
// short: the abort flag, how far delivery got, and the collector's wall
// clock, which must stop at the last event popped within the horizon.
type abortGolden struct {
	aborted              bool
	delivered, total     int
	makespan, sumLatency int64
	wall                 int64
}

func checkAbortGolden(t *testing.T, name string, res *Result, want abortGolden) {
	t.Helper()
	got := abortGolden{res.Aborted, res.Delivered, res.TotalPackets, res.Makespan, res.SumLatency, res.Metrics.Wall}
	if got.delivered >= got.total {
		t.Errorf("%s: delivered %d of %d packets despite the abort", name, got.delivered, got.total)
	}
	if got != want {
		t.Errorf("%s:\n got  %+v\n want %+v", name, got, want)
	}
}

// TestGoldenClosedLoopAborted pins the MaxCycles abort of both closed-loop
// engines on contended patterns (only the open-loop saturation abort was
// pinned before).
func TestGoldenClosedLoopAborted(t *testing.T) {
	f := topology.NewFoldedClos(3, 4, 4)
	_, res, err := RunPermutation(f.Net, routing.NewDestMod(f), permutation.LocalRotate(3, 4), Config{
		PacketFlits: 3, PacketsPerPair: 4, MaxCycles: 14, Collector: NewMetricsCollector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAbortGolden(t, "run", res, abortGolden{
		aborted: true, delivered: 12, total: 48, makespan: 12, sumLatency: 144, wall: 12,
	})

	fa := topology.NewFoldedClos(2, 3, 6)
	p := permutation.Random(rand.New(rand.NewSource(9)), fa.Ports())
	want := map[AdaptMode]abortGolden{
		AdaptLocal:  {aborted: true, delivered: 44, total: 60, makespan: 18, sumLatency: 468, wall: 18},
		AdaptOracle: {aborted: true, delivered: 45, total: 60, makespan: 18, sumLatency: 483, wall: 18},
	}
	for _, mode := range []AdaptMode{AdaptLocal, AdaptOracle} {
		res, err := RunFtreeAdaptive(fa, p, Config{PacketFlits: 3, PacketsPerPair: 5, MaxCycles: 20, Collector: NewMetricsCollector()}, mode)
		if err != nil {
			t.Fatal(err)
		}
		checkAbortGolden(t, "adaptive/"+mode.String(), res, want[mode])
	}
}
