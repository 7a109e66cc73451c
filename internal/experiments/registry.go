package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/campaign"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Params are the run-time knobs of the two experiment CLIs (cmd/nbtables
// and cmd/nbreport); each entry derives its trial counts and seed from
// them.
type Params struct {
	Trials int   // trials for randomized experiments
	Seed   int64 // seed for randomized experiments
	SimN   int   // n of E6's networks in nbtables (hosts = n(n+n²))
}

// DefaultParams are both CLIs' flag defaults.
func DefaultParams() Params { return Params{Trials: 100, Seed: 1, SimN: 3} }

// Validate rejects parameters that would render empty or meaningless
// tables; both CLIs call it before printing anything.
func (p Params) Validate() error {
	if p.Trials < 1 {
		return fmt.Errorf("-trials must be >= 1 (got %d)", p.Trials)
	}
	if p.SimN < 1 {
		return fmt.Errorf("-sim-n must be >= 1 (got %d)", p.SimN)
	}
	return nil
}

// renderer is what every experiment result implements.
type renderer interface{ Render(io.Writer) }

// renderers renders several results as one section.
type renderers []renderer

func (rs renderers) Render(w io.Writer) {
	for _, r := range rs {
		r.Render(w)
	}
}

// renderFunc renders a section that has no result type of its own.
type renderFunc func(io.Writer)

func (f renderFunc) Render(w io.Writer) { f(w) }

// Entry is one experiment as the two CLIs show it. nbtables lists the
// entries with a Flag, nbreport those with a Heading.
type Entry struct {
	ID      string
	Flag    string // nbtables selection flag; "" when only nbreport shows the entry
	Usage   string // help text of Flag
	Title   string // nbtables "== Title ==" heading
	Heading string // nbreport "## Heading" section; "" when only nbtables shows the entry

	run       func(Params) (renderer, error) // the entry with nbtables' parameters
	reportRun func(Params) (renderer, error) // nbreport's parameters, when they differ from run's
}

// RenderTables runs e with nbtables' parameters and writes its tables.
func (e *Entry) RenderTables(w io.Writer, p Params) error { return render(w, e.run, p) }

// RenderReport runs e with nbreport's parameters and writes its tables.
func (e *Entry) RenderReport(w io.Writer, p Params) error {
	if e.reportRun != nil {
		return render(w, e.reportRun, p)
	}
	return render(w, e.run, p)
}

func render(w io.Writer, run func(Params) (renderer, error), p Params) error {
	res, err := run(p)
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

// packetCfg is the packet shape of the simulated sections.
var packetCfg = sim.Config{PacketFlits: 4, PacketsPerPair: 8}

// Registry lists every experiment in the order both CLIs print them.
// Adding an experiment to the CLIs is adding one entry here.
func Registry() []Entry {
	return []Entry{
		{ID: "T1", Flag: "table1", Usage: "Table I",
			Title:   "T1: Table I — nonblocking ftree(n+n²,n+n²) vs FT(N,2)",
			Heading: "T1 — Table I",
			run:     func(Params) (renderer, error) { return TableI(), nil },
		},
		{ID: "E1", Flag: "theorem3", Usage: "E1: Theorem 3 verification and Theorem 2 tightness",
			Title:   "E1: Theorem 3 (exact) and Theorem 2 tightness",
			Heading: "E1 — Theorems 2 & 3 (exact verification + tightness)",
			run:     func(Params) (renderer, error) { return Theorem3([][2]int{{2, 5}, {2, 8}, {3, 7}, {4, 9}}) },
		},
		{ID: "E2", Flag: "lemma2", Usage: "E2: Lemma-2 exact search",
			Title:   "E2: Lemma 2 — exact max SD pairs through one top switch",
			Heading: "E2 — Lemma 2 exact maxima",
			run:     func(Params) (renderer, error) { return Lemma2([]int{1, 2, 3}, []int{2, 3, 4, 5, 6}), nil },
		},
		{ID: "E3", Flag: "theorem1", Usage: "E3: Theorem-1 port bounds",
			Title:   "E3: Theorem 1 — ports vs 2(n+m) for r ≤ 2n+1",
			Heading: "E3 — Theorem 1 port bounds",
			run:     func(Params) (renderer, error) { return Theorem1([]int{2, 3, 4}), nil },
		},
		{ID: "E4", Flag: "adaptive", Usage: "E4: adaptive top-switch demand",
			Title:   "E4: NONBLOCKINGADAPTIVE top-switch demand (r = n²)",
			Heading: "E4 — NONBLOCKINGADAPTIVE demand scaling",
			run: func(p Params) (renderer, error) {
				return Adaptive([]int{4, 6, 8, 12, 16, 24, 32}, p.Trials/3+1, p.Seed)
			},
			reportRun: func(p Params) (renderer, error) {
				return Adaptive([]int{4, 6, 8, 12, 16, 24}, p.Trials/3+1, p.Seed)
			},
		},
		{ID: "E6", Flag: "throughput", Usage: "E6: simulated throughput vs crossbar",
			Title:     "E6: simulated permutation throughput vs crossbar",
			Heading:   "E6 — simulated permutation throughput",
			run:       func(p Params) (renderer, error) { return Throughput(p.SimN, p.Trials, p.Seed, packetCfg) },
			reportRun: func(p Params) (renderer, error) { return Throughput(3, p.Trials/2+1, p.Seed, packetCfg) },
		},
		{ID: "E7", Flag: "multipath", Usage: "E7: multipath blocking probability",
			Title:   "E7: traffic-oblivious multipath does not relax the condition",
			Heading: "E7 — oblivious multipath (§IV.B)",
			run:     func(p Params) (renderer, error) { return Multipath(2, 8, p.Trials, p.Seed) },
		},
		{ID: "E8", Flag: "threelevel", Usage: "E8: three-level construction",
			Title:   "E8: recursive three-level nonblocking construction",
			Heading: "E8 — recursive constructions",
			run: func(Params) (renderer, error) {
				ml, err := MultiLevel(2, []int{2, 3, 4})
				if err != nil {
					return nil, err
				}
				tl3, err := ThreeLevel(3)
				if err != nil {
					return nil, err
				}
				// The n = 2 three-level summary is ml's depth-3 row.
				return renderers{ml.ThreeLevel(), tl3, ml}, nil
			},
		},
		{ID: "E9", Flag: "benes", Usage: "E9: Benes baseline",
			Title:   "E9: centralized rearrangeable vs distributed greedy",
			Heading: "E9 — centralized rearrangeable baseline",
			run:     func(p Params) (renderer, error) { return Benes(3, 6, p.Trials, p.Seed) },
		},
		{ID: "E10", Flag: "online", Usage: "E10: online circuit-switching conditions (Clos/Yang-Wang)",
			Title:   "E10: online circuit switching on Clos(n,m,r) (§II conditions)",
			Heading: "E10 — online circuit switching (§II)",
			run:     func(p Params) (renderer, error) { return Online(2, 4, p.Trials, p.Seed) },
		},
		{ID: "E11", Flag: "fault", Usage: "E11: degraded-mode routing with failed top switches",
			Title:     "E11: degraded mode — failed top-level switches",
			Heading:   "E11 — degraded mode",
			run:       func(p Params) (renderer, error) { return Fault(8, 64, 2, 5, p.Seed) },
			reportRun: func(p Params) (renderer, error) { return Fault(8, 64, 2, 3, p.Seed) },
		},
		{ID: "E12", Flag: "loadsweep", Usage: "E12: open-loop latency/throughput curves",
			Title:   "E12: open-loop load sweep (latency vs offered load)",
			Heading: "E12 — open-loop load sweep",
			run: func(p Params) (renderer, error) {
				return LoadSweepExperiment(3, 12, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, p.Seed)
			},
		},
		{ID: "worstcase", Flag: "worstcase", Usage: "adversarial contention search",
			Title: "adversarial worst-case contention search",
			run:   func(p Params) (renderer, error) { return WorstCase(3, 10, 4, 150, p.Seed) },
		},
		{ID: "E13", Flag: "collectives", Usage: "E13: collective workloads (all-to-all, transpose, random phases)",
			Title:   "E13: bulk-synchronous collectives",
			Heading: "E13 — collectives",
			run:     func(p Params) (renderer, error) { return Collectives(3, p.Seed, packetCfg) },
		},
		{ID: "E14", Flag: "randmodel", Usage: "E14: birthday model of randomized routing vs Monte Carlo",
			Title:   "E14: randomized routing — birthday model vs measurement",
			Heading: "E14 — randomized-routing birthday model",
			run: func(p Params) (renderer, error) {
				return RandomModel(2, 8, p.Trials, []int{4, 8, 16, 32, 64, 128}, p.Seed)
			},
			reportRun: func(p Params) (renderer, error) {
				return RandomModel(2, 8, p.Trials*2, []int{4, 8, 16, 32, 64, 128}, p.Seed)
			},
		},
		{ID: "E15", Flag: "oversub", Usage: "E15: oversubscription cost/performance frontier",
			Title:   "E15: oversubscription frontier (m below n²)",
			Heading: "E15 — oversubscription frontier",
			run: func(p Params) (renderer, error) {
				return Oversub(4, 12, p.Trials, p.Seed, sim.Config{PacketFlits: 2, PacketsPerPair: 4})
			},
			reportRun: func(p Params) (renderer, error) {
				return Oversub(4, 12, p.Trials/2+1, p.Seed, sim.Config{PacketFlits: 2, PacketsPerPair: 4})
			},
		},
		{ID: "E16", Flag: "innetwork", Usage: "E16: per-packet in-network adaptivity vs pattern-level routing",
			Title:   "E16: per-packet in-network adaptivity",
			Heading: "E16 — in-network per-packet adaptivity",
			run:     func(p Params) (renderer, error) { return InNetworkAdaptive(3, 12, p.Trials/4+1, p.Seed, packetCfg) },
		},
		{ID: "E17", Flag: "worstload", Usage: "E17: exact worst-case link load per deterministic scheme",
			Title:   "E17: exact worst-case link load (per-link maximum matching)",
			Heading: "E17 — exact worst-case link load",
			run:     func(p Params) (renderer, error) { return WorstLoad(3, 10, p.Seed) },
		},
		{ID: "E18",
			Heading: "E18 — observability (per-stage wait, link utilization)",
			run:     func(Params) (renderer, error) { return observability(packetCfg) },
		},
		{ID: "E20",
			Heading: "E20 — fault campaign: nonblocking margin vs failures",
			run: func(p Params) (renderer, error) {
				// m = 8 staggers the cliffs inside the sweep: the avoiding
				// adaptive refuses once its demand bound (6 tops for these
				// patterns) exceeds the healthy count (k >= 3), the spared
				// scheme burns its 4 spares and dies at k = 5, while naive
				// remap and local rerouting degrade gradually — the curves
				// separate all four schemes.
				rep, err := campaign.Run(context.Background(), campaign.Config{
					N: 2, M: 8, R: 4,
					Scenario:    campaign.ScenarioTops,
					MaxFailures: 5,
					Samples:     3,
					Trials:      p.Trials,
					Seed:        p.Seed,
					Sim:         true,
				})
				return renderFunc(func(w io.Writer) { campaign.Render(w, rep) }), err
			},
		},
		{ID: "Scaling", Flag: "scaling", Usage: "Discussion scaling table",
			Title:   "Discussion: 2-level vs 3-level scaling",
			Heading: "Scaling — 2- vs 3-level cost",
			run:     func(Params) (renderer, error) { return Scaling([]int{2, 3, 4, 5, 6}) },
		},
	}
}

// observability (E18) contrasts the nonblocking paper routing with a
// router that forces every pair through top switch 0, on one shift
// permutation through the metrics collector: the Lemma-1 signature is
// zero queueing wait beyond the injection stage and no link above full
// utilization; blocking routing shows up as up-stage wait and a hot link.
func observability(cfg sim.Config) (renderer, error) {
	f := topology.NewFoldedClos(2, 4, 5)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		return nil, err
	}
	single := &routing.FtreeSinglePath{
		F: f, RouterName: "single-top", TopChoice: func(s, d int) int { return 0 },
	}
	shift := f.Ports() / 2
	perm := permutation.Shift(f.Ports(), shift)
	var rs renderers
	for _, rt := range []routing.Router{paper, single} {
		c := cfg
		c.Collector = sim.NewMetricsCollector()
		_, res, err := sim.RunPermutation(f.Net, rt, perm, c)
		if err != nil {
			return nil, err
		}
		name := rt.Name()
		rs = append(rs, renderFunc(func(w io.Writer) {
			m := res.Metrics
			fmt.Fprintf(w, "%s on shift(%d): makespan %d, max link utilization %.2f, latency p50/p99 %d/%d\n",
				name, shift, res.Makespan, m.MaxUtilization(), m.Latency.P50(), m.Latency.P99())
			for s := 0; s < sim.NumStages; s++ {
				st := m.Stages[s]
				if st.Hops == 0 {
					continue
				}
				fmt.Fprintf(w, "  stage %-9s  hops %4d  mean wait %5.2f  max wait %3d\n",
					sim.StageName(s), st.Hops, float64(st.Wait)/float64(st.Hops), st.MaxWait)
			}
			// The busiest link, by integrated busy cycles.
			var hot topology.LinkID
			for l := range m.Links {
				if m.Links[l].Busy > m.Links[hot].Busy {
					hot = topology.LinkID(l)
				}
			}
			fmt.Fprintf(w, "  busiest link: utilization %.2f, peak queue %d\n\n",
				m.Utilization(hot), m.Links[hot].PeakQueue)
		}))
	}
	return rs, nil
}
