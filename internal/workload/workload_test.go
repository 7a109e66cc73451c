package workload

import (
	"fmt"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// mustWorkload unwraps a constructor result for tests exercising valid
// inputs.
func mustWorkload(w *Workload, err error) *Workload {
	if err != nil {
		panic(err)
	}
	return w
}

// contendedLinksOracle is the verbatim pre-PR nested-map implementation of
// per-phase contention counting, kept as the oracle for the flat-array
// analysis.Checker accounting Run now uses.
func contendedLinksOracle(a *routing.Assignment) int {
	load := map[topology.LinkID]map[int]bool{}
	for i, ps := range a.PathSets {
		for _, p := range ps {
			for _, l := range p.Links {
				if load[l] == nil {
					load[l] = map[int]bool{}
				}
				load[l][i] = true
			}
		}
	}
	c := 0
	for _, pairs := range load {
		if len(pairs) > 1 {
			c++
		}
	}
	return c
}

func TestContendedLinksMatchesMapOracle(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	routers := []routing.Router{paper, routing.NewDestMod(f), routing.NewSourceMod(f)}
	for _, w := range []*Workload{
		mustWorkload(AllToAll(f.Ports())),
		mustWorkload(RandomPhases(f.Ports(), 6, 3)),
		mustWorkload(RingExchange(f.Ports())),
	} {
		for _, r := range routers {
			res, err := Run(f.Net, r, w, sim.Config{PacketFlits: 2, PacketsPerPair: 1})
			if err != nil {
				t.Fatal(err)
			}
			for pi, phase := range w.Phases {
				a, err := r.Route(phase)
				if err != nil {
					t.Fatal(err)
				}
				if want := contendedLinksOracle(a); res.Phases[pi].ContendedLinks != want {
					t.Errorf("%s/%s phase %d: ContendedLinks=%d, oracle=%d",
						w.Name, r.Name(), pi, res.Phases[pi].ContendedLinks, want)
				}
			}
		}
	}
}

func TestGeneratorsValid(t *testing.T) {
	cases := []*Workload{
		mustWorkload(AllToAll(10)),
		mustWorkload(ButterflyExchange(16)),
		mustWorkload(RingExchange(7)),
		mustWorkload(Stencil2D(3, 4)),
		mustWorkload(TransposeWorkload(3, 4)),
		mustWorkload(RandomPhases(8, 5, 1)),
	}
	for _, w := range cases {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if len(mustWorkload(AllToAll(10)).Phases) != 9 {
		t.Fatal("all-to-all phase count")
	}
	if len(mustWorkload(ButterflyExchange(16)).Phases) != 4 {
		t.Fatal("butterfly phase count")
	}
	if len(mustWorkload(Stencil2D(3, 4)).Phases) != 4 {
		t.Fatal("stencil phase count")
	}
	if got := mustWorkload(AllToAll(10)).Hosts(); got != 10 {
		t.Fatalf("hosts = %d", got)
	}
}

func TestStencilNeighborsCorrect(t *testing.T) {
	w := mustWorkload(Stencil2D(3, 4))
	east := w.Phases[0]
	// (1,1) = endpoint 5 sends east to (1,2) = 6.
	if east.Dst(5) != 6 {
		t.Fatalf("east neighbor of 5 = %d", east.Dst(5))
	}
	// Wraparound: (1,3) = 7 sends east to (1,0) = 4.
	if east.Dst(7) != 4 {
		t.Fatalf("east wrap of 7 = %d", east.Dst(7))
	}
	north := w.Phases[3]
	// (0,2) = 2 sends north (i-1) to (2,2) = 10 with wraparound.
	if north.Dst(2) != 10 {
		t.Fatalf("north wrap of 2 = %d", north.Dst(2))
	}
}

func TestValidateRejections(t *testing.T) {
	if err := (&Workload{Name: "empty"}).Validate(); err == nil {
		t.Fatal("empty workload accepted")
	}
	w := mustWorkload(RingExchange(4))
	w.Phases = append(w.Phases, mustWorkload(AllToAll(6)).Phases[0])
	if err := w.Validate(); err == nil {
		t.Fatal("mixed-size phases accepted")
	}
	if (&Workload{}).Hosts() != 0 {
		t.Fatal("empty Hosts")
	}
}

// TestConstructorsRejectInvalidInput pins the error (not panic) contract:
// every generator is reachable from nbserve/CLI user input, so malformed
// sizes must come back as errors.
func TestConstructorsRejectInvalidInput(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"butterfly non-power-of-two", func() error { _, err := ButterflyExchange(6); return err }()},
		{"butterfly zero", func() error { _, err := ButterflyExchange(0); return err }()},
		{"butterfly negative", func() error { _, err := ButterflyExchange(-8); return err }()},
		{"stencil zero rows", func() error { _, err := Stencil2D(0, 3); return err }()},
		{"stencil negative cols", func() error { _, err := Stencil2D(3, -1); return err }()},
		{"stencil 1x1", func() error { _, err := Stencil2D(1, 1); return err }()},
		{"transpose zero", func() error { _, err := TransposeWorkload(0, 5); return err }()},
		{"all-to-all one host", func() error { _, err := AllToAll(1); return err }()},
		{"all-to-all negative", func() error { _, err := AllToAll(-3); return err }()},
		{"ring one host", func() error { _, err := RingExchange(1); return err }()},
		{"ring negative", func() error { _, err := RingExchange(-1); return err }()},
		{"random negative hosts", func() error { _, err := RandomPhases(-1, 3, 1); return err }()},
		{"random zero phases", func() error { _, err := RandomPhases(8, 0, 1); return err }()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRunNonblockingMatchesCrossbarShape(t *testing.T) {
	// All-to-all on the nonblocking ftree completes within pipeline
	// overhead of the crossbar; dest-mod static routing is strictly
	// slower and contends in at least one phase.
	f := topology.NewFoldedClos(2, 4, 5)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(AllToAll(f.Ports()))
	cfg := sim.Config{PacketFlits: 2, PacketsPerPair: 4}
	nb, err := Run(f.Net, paper, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nb.ContendedPhases() != 0 {
		t.Fatalf("nonblocking run contended in %d phases", nb.ContendedPhases())
	}
	ref, err := RunCrossbar(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := nb.Slowdown(ref); s > 1.5 {
		t.Fatalf("nonblocking all-to-all slowdown %.2f", s)
	}
	// Shift phases happen to avoid dest-mod collisions on this small
	// configuration (consecutive destinations differ mod m); random
	// phases expose the contention.
	rw := mustWorkload(RandomPhases(f.Ports(), 10, 1))
	nbR, err := Run(f.Net, paper, rw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Run(f.Net, routing.NewDestMod(f), rw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dm.TotalCycles <= nbR.TotalCycles {
		t.Fatalf("dest-mod (%d cycles) should be slower than nonblocking (%d) on random phases", dm.TotalCycles, nbR.TotalCycles)
	}
	if dm.ContendedPhases() == 0 {
		t.Fatal("dest-mod should contend in some phase")
	}
	if nbR.ContendedPhases() != 0 {
		t.Fatal("nonblocking routing contended on random phases")
	}
	if len(nb.Phases) != len(w.Phases) {
		t.Fatal("phase results missing")
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	f := topology.NewFoldedClos(2, 1, 3)
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(f.Net, ad, mustWorkload(AllToAll(f.Ports())), sim.Config{PacketFlits: 2, PacketsPerPair: 2}); err == nil {
		t.Fatal("expected routing error with m=1")
	}
	if _, err := Run(f.Net, ad, &Workload{Name: "empty"}, sim.Config{PacketFlits: 2, PacketsPerPair: 2}); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := RunCrossbar(&Workload{Name: "empty"}, sim.Config{PacketFlits: 2, PacketsPerPair: 2}); err == nil {
		t.Fatal("empty crossbar run accepted")
	}
}

func TestSlowdownZeroReference(t *testing.T) {
	r := &Result{TotalCycles: 10}
	if r.Slowdown(&Result{}) != 1 {
		t.Fatal("zero-reference slowdown should be 1")
	}
}

func TestRunMetricsAggregation(t *testing.T) {
	// A non-nil collector turns per-phase metrics on: every phase reports
	// its busiest-link utilization, the merged payload sums phase walls,
	// and the merged histogram counts every delivered packet.
	f := topology.NewFoldedClos(2, 4, 5)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(RingExchange(f.Ports()))
	cfg := sim.Config{PacketFlits: 2, PacketsPerPair: 4, Collector: sim.NewMetricsCollector()}
	res, err := Run(f.Net, paper, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("no merged metrics attached")
	}
	var wantWall, delivered int64
	for i, pr := range res.Phases {
		if pr.MaxLinkUtilization <= 0 || pr.MaxLinkUtilization > 1 {
			t.Errorf("phase %d: max utilization %v outside (0, 1]", i, pr.MaxLinkUtilization)
		}
		wantWall += pr.Makespan
	}
	delivered = int64(len(w.Phases) * f.Ports() * cfg.PacketsPerPair)
	if res.Metrics.Wall != wantWall {
		t.Errorf("merged wall %d, want sum of phase makespans %d", res.Metrics.Wall, wantWall)
	}
	if res.Metrics.Latency.Count != delivered {
		t.Errorf("merged histogram count %d, want %d", res.Metrics.Latency.Count, delivered)
	}

	// Metrics off: nothing attached.
	cfg.Collector = nil
	off, err := Run(f.Net, paper, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Metrics != nil {
		t.Fatal("metrics attached without a collector")
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// ButterflyExchange is the recursive-doubling exchange (allreduce,
// broadcast trees): log2(hosts) phases, phase k pairing i ↔ i XOR 2^k.
// hosts must be a power of two, at least 2.
func ButterflyExchange(hosts int) (*Workload, error) {
	if hosts < 2 || hosts&(hosts-1) != 0 {
		return nil, fmt.Errorf("workload: butterfly needs a power-of-two host count ≥ 2, have %d", hosts)
	}
	w := &Workload{Name: fmt.Sprintf("butterfly(%d)", hosts)}
	for bit := 1; bit < hosts; bit <<= 1 {
		dst := make([]int, hosts)
		for i := range dst {
			dst[i] = i ^ bit
		}
		p, err := permutation.FromDsts(dst)
		if err != nil {
			return nil, err
		}
		w.Phases = append(w.Phases, p)
	}
	return w, nil
}
