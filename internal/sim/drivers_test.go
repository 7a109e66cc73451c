package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The multi-run drivers promise the same output for every worker count:
// permutations are drawn up front from the seed and results land by
// index. The sequential loops below are the reference they are held to;
// they draw lazily and give each run a fresh collector, so they share
// neither the up-front draw, the pool nor the collector pool with the
// drivers. TestDriversWorkersParity runs under -race in CI (make race).

func runTrialsOracle(net *topology.Network, r routing.Router, hosts, trials int, seed int64, cfg Config) ([]*Result, error) {
	rng := rand.New(rand.NewSource(seed))
	results := make([]*Result, trials)
	for i := range results {
		tcfg := cfg
		if cfg.Collector != nil {
			tcfg.Collector = NewMetricsCollector()
		}
		_, res, err := RunPermutation(net, r, permutation.Random(rng, hosts), tcfg)
		if err != nil {
			return nil, err
		}
		if res.Metrics != nil {
			res.Metrics = res.Metrics.Clone()
		}
		results[i] = res
	}
	return results, nil
}

func compareToCrossbarOracle(net *topology.Network, r routing.Router, hosts, trials int, seed int64, cfg Config) (*ThroughputSummary, error) {
	cfg.Collector = nil
	rng := rand.New(rand.NewSource(seed))
	sum := &ThroughputSummary{}
	var slowdowns []float64
	for i := 0; i < trials; i++ {
		p := permutation.Random(rng, hosts)
		_, res, err := RunPermutation(net, r, p, cfg)
		if err != nil {
			return nil, err
		}
		ref, err := CrossbarReference(hosts, p, cfg)
		if err != nil {
			return nil, err
		}
		s := res.Slowdown(ref)
		slowdowns = append(slowdowns, s)
		sum.MeanSlowdown += s
		sum.MeanRelThroughput += 1 / s
		if s > sum.MaxSlowdown {
			sum.MaxSlowdown = s
		}
		sum.Patterns++
	}
	if sum.Patterns > 0 {
		sum.MeanSlowdown /= float64(sum.Patterns)
		sum.MeanRelThroughput /= float64(sum.Patterns)
		sort.Float64s(slowdowns)
		sum.MedianSlowdown = slowdowns[len(slowdowns)/2]
	}
	return sum, nil
}

func loadSweepOracle(net *topology.Network, pairs [][2]int, pathsFor func(s, d int) ([]topology.Path, error), rates []float64, base OpenLoopConfig) ([]LoadSweepPoint, error) {
	points := make([]LoadSweepPoint, 0, len(rates))
	for _, rate := range rates {
		cfg := base
		cfg.Rate = rate
		if base.Collector != nil {
			cfg.Collector = NewMetricsCollector()
		}
		res, err := OpenLoop(net, pairs, pathsFor, cfg)
		if err != nil {
			return nil, err
		}
		pt := LoadSweepPoint{
			OfferedLoad:  rate,
			AcceptedLoad: res.AcceptedLoad,
			MeanLatency:  res.MeanLatency,
			P99Latency:   res.P99Latency,
			Saturated:    res.Saturated,
		}
		if res.Metrics != nil {
			pt.Metrics = res.Metrics.Clone()
		}
		points = append(points, pt)
	}
	return points, nil
}

func TestDriversWorkersParity(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 6)
	hosts := f.Ports()
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	destMod := routing.NewDestMod(f)
	// bad fails only on the patterns sending host 0 to a host ≡ 0 mod 3,
	// with the destination in the message. Under seed 5 trials 1 (0->3)
	// and 8 (0->9) fail, so a driver must report the lowest-index failing
	// trial to match the oracle.
	bad := &routing.FtreeSinglePath{F: f, RouterName: "bad", TopChoice: func(s, d int) int {
		if s == 0 && d%3 == 0 {
			return 99
		}
		return d % 4
	}}
	badPaths := func(s, d int) ([]topology.Path, error) {
		if s == 0 {
			return nil, errors.New("no path from host 0")
		}
		return PairPathsFunc(paper)(s, d)
	}
	closed := Config{PacketFlits: 4, PacketsPerPair: 4, Arbiter: RoundRobin}
	metered := closed
	metered.Collector = NewMetricsCollector()
	pairs := permPairsFor(permutation.SwitchShift(2, 6, 1))
	open := openCfg(0)
	openMetered := open
	openMetered.Collector = NewMetricsCollector()
	rates := []float64{0.1, 0.3, 0.5, 0.8, 1.0}

	cases := []struct {
		name    string
		run     func(workers int) (any, error)
		oracle  func() (any, error)
		wantErr bool
	}{
		{name: "RunTrials",
			run:    func(w int) (any, error) { return RunTrials(f.Net, paper, hosts, 9, w, 3, closed) },
			oracle: func() (any, error) { return runTrialsOracle(f.Net, paper, hosts, 9, 3, closed) }},
		{name: "RunTrials-metrics",
			run:    func(w int) (any, error) { return RunTrials(f.Net, destMod, hosts, 6, w, 11, metered) },
			oracle: func() (any, error) { return runTrialsOracle(f.Net, destMod, hosts, 6, 11, metered) }},
		{name: "RunTrials-first-error", wantErr: true,
			run:    func(w int) (any, error) { return RunTrials(f.Net, bad, hosts, 9, w, 5, closed) },
			oracle: func() (any, error) { return runTrialsOracle(f.Net, bad, hosts, 9, 5, closed) }},
		{name: "CompareToCrossbar",
			run:    func(w int) (any, error) { return CompareToCrossbar(f.Net, destMod, hosts, 7, w, 11, metered) },
			oracle: func() (any, error) { return compareToCrossbarOracle(f.Net, destMod, hosts, 7, 11, metered) }},
		{name: "CompareToCrossbar-first-error", wantErr: true,
			run:    func(w int) (any, error) { return CompareToCrossbar(f.Net, bad, hosts, 9, w, 5, closed) },
			oracle: func() (any, error) { return compareToCrossbarOracle(f.Net, bad, hosts, 9, 5, closed) }},
		{name: "LoadSweepParallel",
			run:    func(int) (any, error) { return LoadSweepParallel(f.Net, pairs, PairPathsFunc(destMod), rates, open) },
			oracle: func() (any, error) { return loadSweepOracle(f.Net, pairs, PairPathsFunc(destMod), rates, open) }},
		{name: "LoadSweepParallel-metrics",
			run: func(int) (any, error) {
				return LoadSweepParallel(f.Net, pairs, PairPathsFunc(paper), rates, openMetered)
			},
			oracle: func() (any, error) { return loadSweepOracle(f.Net, pairs, PairPathsFunc(paper), rates, openMetered) }},
		{name: "LoadSweepParallel-first-error", wantErr: true,
			run:    func(int) (any, error) { return LoadSweepParallel(f.Net, pairs, badPaths, rates, open) },
			oracle: func() (any, error) { return loadSweepOracle(f.Net, pairs, badPaths, rates, open) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantErr := c.oracle()
			if (wantErr != nil) != c.wantErr {
				t.Fatalf("oracle error %v, want error: %v", wantErr, c.wantErr)
			}
			for _, workers := range []int{1, 2, 3, 0} {
				got, err := c.run(workers)
				if errText(err) != errText(wantErr) {
					t.Fatalf("workers=%d: error %q, oracle %q", workers, errText(err), errText(wantErr))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: result diverges from the sequential oracle:\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
	// The metered cases must actually carry snapshots, or the comparison
	// above proves nothing about them.
	trials, err := RunTrials(f.Net, destMod, hosts, 2, 2, 11, metered)
	if err != nil {
		t.Fatal(err)
	}
	points, err := LoadSweepParallel(f.Net, pairs, PairPathsFunc(paper), rates, openMetered)
	if err != nil {
		t.Fatal(err)
	}
	if trials[1].Metrics == nil || points[len(points)-1].Metrics == nil {
		t.Fatal("metered drivers attached no Metrics")
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestTrialDriversRejectNegativeTrials: a negative trial count is an
// error, not a panic in make, and zero trials is an empty result.
func TestTrialDriversRejectNegativeTrials(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r := routing.NewDestMod(f)
	cfg := Config{PacketFlits: 2, PacketsPerPair: 1}
	for _, workers := range []int{1, 0} {
		if res, err := RunTrials(f.Net, r, f.Ports(), -2, workers, 1, cfg); err == nil || res != nil {
			t.Fatalf("workers=%d: RunTrials(trials=-2) = %v, %v; want an error", workers, res, err)
		}
		if sum, err := CompareToCrossbar(f.Net, r, f.Ports(), -1, workers, 1, cfg); err == nil || sum != nil {
			t.Fatalf("workers=%d: CompareToCrossbar(trials=-1) = %+v, %v; want an error", workers, sum, err)
		}
		if res, err := RunTrials(f.Net, r, f.Ports(), 0, workers, 1, cfg); err != nil || len(res) != 0 {
			t.Fatalf("workers=%d: RunTrials(trials=0) = %v, %v", workers, res, err)
		}
		if sum, err := CompareToCrossbar(f.Net, r, f.Ports(), 0, workers, 1, cfg); err != nil || *sum != (ThroughputSummary{}) {
			t.Fatalf("workers=%d: CompareToCrossbar(trials=0) = %+v, %v", workers, sum, err)
		}
	}
}
