package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/permutation"
	"repro/internal/topology"
)

func TestRunSmallCampaign(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		N: 2, R: 4, Scenario: ScenarioTops, MaxFailures: 2, Samples: 2, Trials: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Curves) != 4 {
		t.Fatalf("curves = %d, want 4", len(rep.Curves))
	}
	for _, curve := range rep.Curves {
		if len(curve.Points) != 3 {
			t.Fatalf("scheme %s: points = %d, want 3 (k=0..2)", curve.Scheme, len(curve.Points))
		}
		p0 := curve.Points[0]
		if p0.Failures != 0 || p0.Samples != 1 || p0.Patterns != 10 {
			t.Fatalf("scheme %s: malformed k=0 point %+v", curve.Scheme, p0)
		}
		// Every scheme is clean on the pristine fabric (m = n²+2 here).
		if curve.Scheme != SchemeNaive && p0.DegradedFrac != 0 {
			t.Errorf("scheme %s degraded at k=0: %+v", curve.Scheme, p0)
		}
	}
	// The naive remap is the negative control: it must degrade under
	// failures while the spared scheme (within its spare budget) stays
	// clean.
	var naive, spared *[3]float64
	for _, c := range rep.Curves {
		var fr [3]float64
		for i, pt := range c.Points {
			fr[i] = pt.DegradedFrac
		}
		switch c.Scheme {
		case SchemeNaive:
			naive = &fr
		case SchemeSpared:
			spared = &fr
		}
	}
	if naive[1] == 0 && naive[2] == 0 {
		t.Error("naive remap never degraded under top-switch failures")
	}
	if spared[1] != 0 || spared[2] != 0 {
		t.Errorf("spared scheme degraded within its spare budget: %v", *spared)
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// Scenarios lists every failure scenario.
func Scenarios() []Scenario {
	return []Scenario{ScenarioLinks, ScenarioTops, ScenarioTopsCorrelated, ScenarioPods}
}

// The determinism claim: a campaign on a worker pool is byte-identical to
// the sequential one. The unit of parallel work is a failure set scored
// for every scheme, so the pool sizes include ones that do and do not
// divide the seven sets; M = n² makes the spared scheme fail from k = 1
// (router failures on some schemes of a set, not others), and the default
// M gives it spares; the simulator runs in half the cases.
func TestRunParallelMatchesSequential(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, m := range []int{4, 0} {
			for _, sim := range []bool{false, true} {
				cfg := Config{
					N: 2, M: m, R: 4, Scenario: sc, MaxFailures: 3, Samples: 2, Trials: 8, Seed: 7, Sim: sim,
				}
				seq, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s m=%d sim=%v sequential: %v", sc, m, sim, err)
				}
				sj, _ := json.Marshal(seq)
				for _, workers := range []int{2, 3, 8} {
					cfg.Workers = workers
					par, err := Run(context.Background(), cfg)
					if err != nil {
						t.Fatalf("%s m=%d sim=%v workers=%d: %v", sc, m, sim, workers, err)
					}
					if pj, _ := json.Marshal(par); string(sj) != string(pj) {
						t.Fatalf("%s m=%d sim=%v workers=%d: parallel output differs from sequential:\n%s\nvs\n%s",
							sc, m, sim, workers, sj, pj)
					}
				}
			}
		}
	}
}

// cancelAfter is a context that cancels itself on the n-th look at its
// Done channel, so a test can stop Run part-way through its feed of
// failure sets without racing a timer.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	looks  atomic.Int32
	n      int32
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.looks.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

// TestRunCancelMidCampaign cancels a campaign after a few failure sets
// have been handed out: Run must return ctx.Err(), and no worker
// goroutine may outlive it.
func TestRunCancelMidCampaign(t *testing.T) {
	for _, workers := range []int{1, 3} {
		before := runtime.NumGoroutine()
		parent, cancel := context.WithCancel(context.Background())
		ctx := &cancelAfter{Context: parent, cancel: cancel, n: 4}
		rep, err := Run(ctx, Config{
			N: 2, R: 4, Scenario: ScenarioLinks, MaxFailures: 6, Samples: 3, Trials: 20, Seed: 3, Workers: workers,
		})
		cancel()
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Fatalf("workers=%d: Run = %v, %v; want nil, context.Canceled", workers, rep, err)
		}
		// Run has waited for its workers, so none may still be scoring;
		// give the exiting goroutines the moment they need to disappear
		// from the count.
		buf := make([]byte, 1<<20)
		if st := string(buf[:runtime.Stack(buf, true)]); strings.Contains(st, "campaign.(*worker)") {
			t.Fatalf("workers=%d: a worker is still scoring after Run returned:\n%s", workers, st)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines before Run, %d after", workers, before, runtime.NumGoroutine())
			}
			runtime.Gosched()
		}
	}
}

// Satellite property test: no fault-aware router may emit a path that
// traverses a failed link or switch, over random failure sets of every
// scenario and the full fault-routing zoo.
func TestNoRouterEmitsFailedPath(t *testing.T) {
	f := topology.NewFoldedClos(2, 7, 4) // m = n²+3: spares for the spared scheme
	rng := rand.New(rand.NewSource(99))
	for _, sc := range Scenarios() {
		dom, err := ScenarioDomain(sc, f.N, f.M, f.R)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 25; round++ {
			k := rng.Intn(dom + 1)
			fs, err := SampleFailures(f, sc, k, rng)
			if err != nil {
				t.Fatalf("%s k=%d: %v", sc, k, err)
			}
			view, err := fs.View(f)
			if err != nil {
				t.Fatal(err)
			}
			alive := view.AliveHosts()
			if len(alive) < 2 {
				continue
			}
			p := permutation.New(f.Ports())
			permutation.RandomAmongInto(rng, p, alive, &permutation.PatternScratch{})
			for _, scheme := range DefaultSchemes() {
				r, err := BuildRouter(f, scheme, view, 5)
				if err != nil {
					continue // spares exhausted etc: a legal outcome
				}
				a, err := r.Route(p)
				if err != nil {
					continue // unroutable pattern: a legal outcome
				}
				for i, paths := range a.PathSets {
					for _, path := range paths {
						if !path.Valid(f.Net) {
							t.Fatalf("%s/%s k=%d: invalid path for pair %v", sc, scheme, k, a.Pairs[i])
						}
						if !view.PathHealthy(path) {
							t.Fatalf("%s/%s k=%d: path for pair %v traverses failed element (set %+v)",
								sc, scheme, k, a.Pairs[i], fs)
						}
					}
				}
			}
		}
	}
}

func TestSampleFailuresShapes(t *testing.T) {
	f := topology.NewFoldedClos(2, 5, 3)
	rng := rand.New(rand.NewSource(3))
	fs, err := SampleFailures(f, ScenarioLinks, 4, rng)
	if err != nil || len(fs.Trunks) != 4 {
		t.Fatalf("links: %v %+v", err, fs)
	}
	fs, err = SampleFailures(f, ScenarioTops, 5, rng)
	if err != nil || len(fs.Tops) != 5 {
		t.Fatalf("tops: %v %+v", err, fs)
	}
	fs, err = SampleFailures(f, ScenarioTopsCorrelated, 3, rng)
	if err != nil || len(fs.Tops) != 3 {
		t.Fatalf("tops-correlated: %v %+v", err, fs)
	}
	fs, err = SampleFailures(f, ScenarioPods, 2, rng)
	if err != nil || len(fs.Bottoms) != 2 {
		t.Fatalf("pods: %v %+v", err, fs)
	}
	if _, err := SampleFailures(f, ScenarioPods, 4, rng); err == nil {
		t.Fatal("expected error: cannot fail 4 of 3 pods")
	}
	if _, err := SampleFailures(f, Scenario("bogus"), 1, rng); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 1, R: 4, Scenario: ScenarioTops},                               // n too small
		{N: 2, R: 4, Scenario: Scenario("nope")},                           // unknown scenario
		{N: 2, R: 4, Scenario: ScenarioPods, MaxFailures: 9},               // beyond domain
		{N: 2, R: 4, Scenario: ScenarioTops, Schemes: []string{"quantum"}}, // unknown scheme
		{N: 2, R: 4, Scenario: ScenarioTops, MaxFailures: -1, Samples: 1},  // negative k
		{N: 2, R: 4, Scenario: ScenarioTops, Trials: -1},                   // negative trials
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}
