package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// OversubRow is one provisioning point of experiment E15.
type OversubRow struct {
	M int
	// Oversubscription is n²/m: 1.0 = the paper's nonblocking point.
	Oversubscription float64
	// Switches is the network cost r+m.
	Switches int
	// Router names the scheme evaluated at this m.
	Router string
	// BlockFraction is P(contention) over random permutations.
	BlockFraction float64
	// MeanSlowdown is the simulated slowdown vs crossbar.
	MeanSlowdown float64
}

// OversubResult is experiment E15: the cost/performance frontier of
// under-provisioned ("oversubscribed") folded-Clos networks — the
// feasibility analysis under cost constraints the paper's introduction
// motivates. For m < n² no routing is nonblocking (Theorem 2); the table
// quantifies how performance degrades as m shrinks, using the best
// available scheme per point: the Theorem-3 assignment folded mod m
// (deterministic) and the centralized edge-coloring router (the
// upper bound any distributed scheme could hope for).
type OversubResult struct {
	N, R, Trials int
	Rows         []OversubRow
}

// Oversub sweeps m from the Benes point n to the nonblocking point n².
func Oversub(n, r, trials int, seed int64, cfg sim.Config) (*OversubResult, error) {
	res := &OversubResult{N: n, R: r, Trials: trials}
	ms := []int{n, 2 * n, n * n / 2, n * n}
	seen := map[int]bool{}
	for _, m := range ms {
		if m < 1 || m > r*n || seen[m] {
			continue
		}
		seen[m] = true
		f := topology.NewFoldedClos(n, m, r)
		var routers []routing.Router
		if m >= n*n {
			pd, err := routing.NewPaperDeterministic(f)
			if err != nil {
				return nil, err
			}
			routers = append(routers, pd)
		} else {
			routers = append(routers, routing.NewPaperDeterministicFolded(f))
		}
		routers = append(routers, routing.NewGlobalRearrangeable(f))
		for _, rt := range routers {
			frac, _, err := analysis.BlockingProbability(rt, f.Ports(), trials, seed)
			if err != nil {
				return nil, err
			}
			sum, err := sim.CompareToCrossbar(f.Net, rt, f.Ports(), trials/4+1, 1, seed, cfg)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, OversubRow{
				M:                m,
				Oversubscription: float64(n*n) / float64(m),
				Switches:         r + m,
				Router:           rt.Name(),
				BlockFraction:    frac,
				MeanSlowdown:     sum.MeanSlowdown,
			})
		}
	}
	return res, nil
}

// Render writes the oversubscription frontier.
func (t *OversubResult) Render(w io.Writer) {
	fmt.Fprintf(w, "ftree(%d+m,%d): cost vs performance as m shrinks below n²=%d (%d random permutations)\n",
		t.N, t.R, t.N*t.N, t.Trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "m\toversub n²/m\tswitches\trouting\tP(contention)\tmean slowdown")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%d\t%s\t%.2f\t%.2f\n",
			r.M, r.Oversubscription, r.Switches, r.Router, r.BlockFraction, r.MeanSlowdown)
	}
	tw.Flush()
}
