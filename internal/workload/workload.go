// Package workload models the bulk-synchronous collective-communication
// patterns that dominate HPC cluster traffic — the application-level
// justification for caring about permutation routing at all: classic
// collectives decompose into sequences of permutation phases, so a
// network that routes any permutation without contention (the paper's
// nonblocking property) runs every phase at full bisection speed.
//
// A Workload is an ordered list of permutation phases executed to
// completion one after another (the BSP model); Run simulates each phase
// on a network/router pair and accumulates completion times.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Workload is a named sequence of permutation phases.
type Workload struct {
	// Name identifies the collective.
	Name string
	// Phases are executed sequentially; each is a (possibly partial)
	// permutation over the host set.
	Phases []*permutation.Permutation
}

// Hosts reports the endpoint count (0 for an empty workload).
func (w *Workload) Hosts() int {
	if len(w.Phases) == 0 {
		return 0
	}
	return w.Phases[0].N()
}

// Validate checks that every phase is a valid permutation over one host
// count.
func (w *Workload) Validate() error {
	if len(w.Phases) == 0 {
		return fmt.Errorf("workload %q: no phases", w.Name)
	}
	n := w.Phases[0].N()
	for i, p := range w.Phases {
		if p.N() != n {
			return fmt.Errorf("workload %q: phase %d over %d endpoints, want %d", w.Name, i, p.N(), n)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload %q: phase %d: %w", w.Name, i, err)
		}
	}
	return nil
}

// The constructors below validate and return errors instead of panicking:
// they are reachable from user input through the nbserve API and the CLIs,
// where a malformed host count must surface as a 4xx/usage error, not a
// crashed process. They also use only caller-seeded rand.Rand instances —
// never the global math/rand source — so workload construction stays
// byte-identical across the deterministic parallel trial drivers.

// AllToAll is the canonical personalized all-to-all (MPI_Alltoall) in its
// shift decomposition: hosts−1 phases, phase k sending i → (i+k) mod hosts.
// hosts must be at least 2.
func AllToAll(hosts int) (*Workload, error) {
	if hosts < 2 {
		return nil, fmt.Errorf("workload: all-to-all needs at least 2 hosts, have %d", hosts)
	}
	w := &Workload{Name: fmt.Sprintf("all-to-all(%d)", hosts)}
	for k := 1; k < hosts; k++ {
		w.Phases = append(w.Phases, permutation.Shift(hosts, k))
	}
	return w, nil
}

// RingExchange is the halo pattern of 1-D domain decompositions: two
// phases, +1 and −1 cyclic shifts. hosts must be at least 2.
func RingExchange(hosts int) (*Workload, error) {
	if hosts < 2 {
		return nil, fmt.Errorf("workload: ring needs at least 2 hosts, have %d", hosts)
	}
	return &Workload{
		Name: fmt.Sprintf("ring(%d)", hosts),
		Phases: []*permutation.Permutation{
			permutation.Shift(hosts, 1),
			permutation.Shift(hosts, -1),
		},
	}, nil
}

// Stencil2D is the 4-phase halo exchange of a rows×cols 2-D domain
// decomposition (periodic boundaries): east, west, south, north shifts.
// Host (i, j) is endpoint i·cols+j. Both dimensions must be positive with
// at least 2 endpoints total.
func Stencil2D(rows, cols int) (*Workload, error) {
	if rows <= 0 || cols <= 0 || rows*cols < 2 {
		return nil, fmt.Errorf("workload: invalid stencil %dx%d", rows, cols)
	}
	n := rows * cols
	mk := func(di, dj int) (*permutation.Permutation, error) {
		p := permutation.New(n)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				ti := ((i+di)%rows + rows) % rows
				tj := ((j+dj)%cols + cols) % cols
				if err := p.Add(i*cols+j, ti*cols+tj); err != nil {
					// Shifts are bijections; failure is an internal bug,
					// but propagate it rather than crash the caller.
					return nil, fmt.Errorf("workload: stencil %dx%d phase (%d,%d): %w", rows, cols, di, dj, err)
				}
			}
		}
		return p, nil
	}
	w := &Workload{Name: fmt.Sprintf("stencil(%dx%d)", rows, cols)}
	for _, d := range [][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
		p, err := mk(d[0], d[1])
		if err != nil {
			return nil, err
		}
		w.Phases = append(w.Phases, p)
	}
	return w, nil
}

// TransposeWorkload is the single-phase matrix transpose (FFT, 2-D
// redistribution): endpoint (i, j) → (j, i) for an rows×cols layout. Both
// dimensions must be positive with at least 2 endpoints total.
func TransposeWorkload(rows, cols int) (*Workload, error) {
	if rows <= 0 || cols <= 0 || rows*cols < 2 {
		return nil, fmt.Errorf("workload: invalid transpose %dx%d", rows, cols)
	}
	return &Workload{
		Name:   fmt.Sprintf("transpose(%dx%d)", rows, cols),
		Phases: []*permutation.Permutation{permutation.Transpose(rows, cols)},
	}, nil
}

// RandomPhases is a synthetic workload of seeded random full permutations.
// hosts must be at least 2 and phases at least 1.
func RandomPhases(hosts, phases int, seed int64) (*Workload, error) {
	if hosts < 2 {
		return nil, fmt.Errorf("workload: random phases need at least 2 hosts, have %d", hosts)
	}
	if phases < 1 {
		return nil, fmt.Errorf("workload: need at least 1 random phase, have %d", phases)
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: fmt.Sprintf("random(%d x %d)", hosts, phases)}
	for i := 0; i < phases; i++ {
		w.Phases = append(w.Phases, permutation.Random(rng, hosts))
	}
	return w, nil
}

// PhaseResult is the outcome of one simulated phase.
type PhaseResult struct {
	// Makespan is the phase completion time in cycles.
	Makespan int64
	// ContendedLinks counts links shared by ≥2 SD pairs of the phase.
	ContendedLinks int
	// MaxLinkUtilization is the phase's busiest-link utilization when
	// metrics were collected (0 otherwise).
	MaxLinkUtilization float64 `json:"max_link_utilization,omitempty"`
}

// Result aggregates a simulated workload run.
type Result struct {
	// Workload names the collective.
	Workload string
	// Router names the routing scheme.
	Router string
	// Phases holds per-phase outcomes.
	Phases []PhaseResult
	// TotalCycles is the bulk-synchronous completion time: the sum of
	// phase makespans.
	TotalCycles int64
	// Metrics is the element-wise merge of the per-phase observability
	// payloads (phase walls add — phases execute back to back) when
	// cfg.Collector was non-nil; nil otherwise.
	Metrics *sim.Metrics `json:"metrics,omitempty"`
}

// Run simulates the workload phase by phase on the network/router pair
// and returns the aggregate completion time. A non-nil cfg.Collector
// turns metrics on: each phase runs with its own pooled collector, phase
// utilization lands in PhaseResult and the merged payload in
// Result.Metrics.
func Run(net *topology.Network, r routing.Router, w *Workload, cfg sim.Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Workload: w.Name, Router: r.Name()}
	collect := cfg.Collector != nil
	if collect {
		cfg.Collector = sim.NewMetricsCollector()
		res.Metrics = &sim.Metrics{}
	}
	// One flat-array Checker amortizes its contention-accounting scratch
	// over all phases (analysis-package hot path; see analysis.Checker).
	chk := analysis.NewChecker(net)
	for _, phase := range w.Phases {
		a, err := r.Route(phase)
		if err != nil {
			return nil, err
		}
		out, err := sim.Run(net, sim.FlowsFromAssignment(a), cfg)
		if err != nil {
			return nil, err
		}
		chk.Analyze(a)
		pr := PhaseResult{Makespan: out.Makespan, ContendedLinks: chk.ContendedCount()}
		if out.Metrics != nil {
			pr.MaxLinkUtilization = out.Metrics.MaxUtilization()
			res.Metrics.Merge(out.Metrics)
		}
		res.Phases = append(res.Phases, pr)
		res.TotalCycles += out.Makespan
	}
	return res, nil
}

// RunCrossbar simulates the workload on the ideal crossbar reference.
func RunCrossbar(w *Workload, cfg sim.Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	x := topology.NewCrossbar(w.Hosts())
	return Run(x.Net, routing.NewCrossbarRouter(x), w, cfg)
}

// Slowdown is the total completion time relative to a reference run.
func (r *Result) Slowdown(ref *Result) float64 {
	if ref.TotalCycles == 0 {
		return 1
	}
	return float64(r.TotalCycles) / float64(ref.TotalCycles)
}

// ContendedPhases counts phases with at least one contended link.
func (r *Result) ContendedPhases() int {
	c := 0
	for _, p := range r.Phases {
		if p.ContendedLinks > 0 {
			c++
		}
	}
	return c
}
