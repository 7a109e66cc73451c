// Package fclos is a from-scratch Go reproduction of Xin Yuan,
// "On Nonblocking Folded-Clos Networks in Computer Communication
// Environments" (IPPS 2011). It re-exports the paper's API from the
// internal packages, and its System assembles them:
//
//   - builders for folded-Clos fat-trees ftree(n+m, r), three-stage Clos
//     networks, m-port n-trees, k-ary n-trees, crossbars and Benes
//     networks;
//   - the Theorem-3 nonblocking single-path deterministic routing, the
//     local adaptive algorithm NONBLOCKINGADAPTIVE, and baselines
//     (destination-mod static routing, oblivious spraying, rearrangeable
//     routing by bipartite edge coloring and the Benes looping algorithm);
//   - exact and randomized nonblocking verification: the Lemma-1
//     all-pairs decision, the Lemma-2 root-set searches, exhaustive
//     permutation sweeps (Sweep) and seeded sampled ones;
//   - the closed-form nonblocking conditions (Theorems 1, 2, 5; Lemma 2),
//     the Table-I cost model, the design planners and fault campaigns;
//   - a deterministic packet simulator for throughput experiments against
//     a crossbar reference.
//
// Quick start — build the nonblocking System of Theorem 3 (the network
// paired with its routing) and verify it:
//
//	sys, _ := fclos.NewDeterministicSystem(4, 20) // ftree(4+16, 20), 80 hosts
//	rep, _ := sys.Verify(0, 0, 0)                 // exact Lemma-1 decision
//	fmt.Println(rep.Nonblocking)                  // true
//
// The cmd/ directory ships the CLI tools — ftree, nbverify, nbsim,
// nbtables, nbreport, nbdesign, the nbserve verification service and the
// nbbench regression gate — and examples/ contains runnable scenario
// walkthroughs.
package fclos

import (
	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/conditions"
	"repro/internal/cost"
	"repro/internal/design"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

// NewNonblockingFtree builds ftree(n+n², r), the smallest folded-Clos that
// is nonblocking under single-path deterministic routing (Theorems 2–3).
func NewNonblockingFtree(n, r int) *topology.FoldedClos { return topology.NewFoldedClos(n, n*n, r) }

// Topology builders; see internal/topology.
var (
	// NewFoldedClos builds ftree(n+m, r): r bottom switches with n hosts
	// each, m top switches of radix r.
	NewFoldedClos = topology.NewFoldedClos
	// NewClos builds the three-stage unidirectional Clos(n, m, r).
	NewClos = topology.NewClos
	// NewCrossbar builds the n-port single-switch reference interconnect.
	NewCrossbar = topology.NewCrossbar
	// NewMPortNTree builds the m-port n-tree FT(m, levels) of Lin et al.
	NewMPortNTree = topology.NewMPortNTree
	// NewKAryNTree builds the k-ary n-tree of Petrini and Vanneschi.
	NewKAryNTree = topology.NewKAryNTree
	// NewBenes builds the Benes network B(k) on 2^k terminals.
	NewBenes = topology.NewBenes
	// WriteDOT renders a network in Graphviz DOT format.
	WriteDOT = topology.WriteDOT
)

// ---------------------------------------------------------------------------
// Permutations
// ---------------------------------------------------------------------------

// Permutation is a (possibly partial) permutation communication pattern
// (Definition 1 of the paper).
type Permutation = permutation.Permutation

// Permutation generators; see internal/permutation.
var (
	RandomPermutation = permutation.Random
	SwitchShiftPerm   = permutation.SwitchShift
	LocalRotatePerm   = permutation.LocalRotate
	GreedyLowSpread   = permutation.GreedyLowSpread
)

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

// Routing types; see internal/routing.
type (
	// PairRouter is a single-path deterministic router.
	PairRouter = routing.PairRouter
	// NonblockingAdaptive is algorithm NONBLOCKINGADAPTIVE (Fig. 4).
	NonblockingAdaptive = routing.NonblockingAdaptive
)

// Router constructors; see internal/routing for the scheme definitions.
var (
	// NewPaperDeterministic is the Theorem-3 routing (requires m ≥ n²).
	NewPaperDeterministic = routing.NewPaperDeterministic
	// NewDestMod is the destination-mod static baseline.
	NewDestMod = routing.NewDestMod
	// NewFullSpray is the §IV.B oblivious multipath scheme that sprays
	// every pair over all top switches.
	NewFullSpray = routing.NewFullSpray
	// NewNonblockingAdaptive is NONBLOCKINGADAPTIVE (§V).
	NewNonblockingAdaptive = routing.NewNonblockingAdaptive
	// NewBenesLooping routes any permutation on B(k) edge-disjointly
	// via the classic looping algorithm.
	NewBenesLooping = routing.NewBenesLooping
	// EdgeColorBipartite is the bipartite edge-coloring engine behind
	// rearrangeable routing (the Benes m ≥ n condition).
	EdgeColorBipartite = routing.EdgeColorBipartite
	// NewMNTDestMod / NewMNTRandomFixed route m-port n-trees.
	NewMNTDestMod     = routing.NewMNTDestMod
	NewMNTRandomFixed = routing.NewMNTRandomFixed
)

// ---------------------------------------------------------------------------
// Analysis and verification
// ---------------------------------------------------------------------------

// SweepSpec selects how Sweep walks the permutations; the zero value is
// the sequential full sweep.
type SweepSpec = analysis.Spec

// WorstCaseSearch hill-climbs for maximally contended permutations.
type WorstCaseSearch = analysis.WorstCaseSearch

// Verification entry points; see internal/analysis.
var (
	// CheckContention computes link loads of a routed pattern.
	CheckContention = analysis.Check
	// CheckLemma1AllPairs decides nonblocking exactly for deterministic
	// routing (Lemma 1).
	CheckLemma1AllPairs = analysis.CheckLemma1AllPairs
	// BlockingWitness extracts a blocked two-pair permutation from a
	// Lemma-1 violation.
	BlockingWitness = analysis.BlockingWitness
	// Sweep routes every full permutation and checks contention; its
	// SweepSpec picks the engine shape — parallel pool, first-blocked early
	// exit, symmetry reduction (byte-identical to the unreduced sweep),
	// prefix or orbit-range shard, progress callback. Routers with
	// pattern-independent paths are swept by the incremental delta engine
	// over a precomputed route table. SweepRandomCtx samples seeded random
	// and structured permutations instead, for networks past the
	// factorial wall. Both sweeps poll their context on a stride outside
	// the per-pattern hot loop and return the partial result plus
	// ctx.Err() on cancellation.
	Sweep          = analysis.Sweep
	SweepRandomCtx = analysis.SweepRandomCtx
	// MaxRootPairsModes / MaxRootPairsNaive are the Lemma-2 exact
	// searches.
	MaxRootPairsModes = analysis.MaxRootPairsModes
	MaxRootPairsNaive = analysis.MaxRootPairsNaive
)

// ---------------------------------------------------------------------------
// Conditions (closed forms) and cost model
// ---------------------------------------------------------------------------

// Closed-form conditions; see internal/conditions.
var (
	Lemma2Cap          = conditions.Lemma2Cap
	DeterministicMinM  = conditions.DeterministicMinM
	AdaptiveSimpleM    = conditions.AdaptiveSimpleM
	ClosStrictM        = conditions.ClosStrictM
	ClosRearrangeableM = conditions.ClosRearrangeableM
)

// Cost-model entry points; see internal/cost.
var (
	// PaperTableI is Table I with 20/30/42-port switches.
	PaperTableI = cost.PaperTableI
	// ScalingTable is the Discussion's multi-level comparison.
	ScalingTable = cost.ScalingTable
)

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

// Simulator types; see internal/sim.
type (
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// ThroughputSummary aggregates crossbar-relative performance.
	ThroughputSummary = sim.ThroughputSummary
	// OpenLoopConfig parameterizes rate-injected runs.
	OpenLoopConfig = sim.OpenLoopConfig
)

// Simulator entry points; see internal/sim.
var (
	// SimulatePermutation routes then simulates one pattern.
	SimulatePermutation = sim.RunPermutation
	// CrossbarReference simulates the pattern on an ideal crossbar.
	CrossbarReference = sim.CrossbarReference
	// RunTrials simulates seeded random permutations and CompareToCrossbar
	// reports their slowdown statistics; both take a worker count and give
	// the same output for every count.
	RunTrials         = sim.RunTrials
	CompareToCrossbar = sim.CompareToCrossbar
	// OpenLoop runs one rate-injected (open-loop) simulation.
	OpenLoop = sim.OpenLoop
	// PairPathsFunc adapts a single-path router for open-loop runs;
	// PermPairs converts a destination vector.
	PairPathsFunc = sim.PairPathsFunc
	PermPairs     = sim.PermPairs
	// NewMetricsCollector returns a reusable default collector: attached
	// to a SimConfig/OpenLoopConfig it records per-link utilization and
	// queue depths, the per-stage hop-latency breakdown, and the
	// end-to-end latency histogram; with no collector the engines pay
	// nothing.
	NewMetricsCollector = sim.NewMetricsCollector
)

// ArbiterRoundRobin makes output arbiters cycle over flows.
const ArbiterRoundRobin = sim.RoundRobin

// ---------------------------------------------------------------------------
// Collective workloads
// ---------------------------------------------------------------------------

// Collective workload generators and runners; see internal/workload.
var (
	// RandomPhases builds a workload of seeded random permutation phases.
	RandomPhases = workload.RandomPhases
	// RunWorkload simulates a workload phase by phase;
	// RunWorkloadCrossbar is the ideal reference.
	RunWorkload         = workload.Run
	RunWorkloadCrossbar = workload.RunCrossbar
)

// ---------------------------------------------------------------------------
// Design-space explorer (nbdesign)
// ---------------------------------------------------------------------------

// Explorer types; see internal/api (the JSON schema shared with
// POST /v1/design) and internal/design (the planner).
type (
	// DesignCatalog is the axes of the (family × n × m × r × router) grid.
	DesignCatalog = api.DesignCatalog
	// DesignReport is the planner output: tier counters plus the Pareto
	// frontier of cost versus guarantee, each point with a certificate.
	DesignReport = api.DesignReport
	// DesignOptions configures a PlanDesignSpace run (tier-2 verifier,
	// probe memo, pruning toggle).
	DesignOptions = design.Options
)

// PlanDesignSpace enumerates a catalog and decides every candidate
// through the three-tier planner (closed forms, monotone binary search
// plus dominance pruning, memoized verification sweeps).
var PlanDesignSpace = design.Plan

// ---------------------------------------------------------------------------
// Fault campaigns (nbverify -failures, /v1/failures)
// ---------------------------------------------------------------------------

// Failure model and campaign types; see internal/topology for the
// FailureSet invariants (whole-element semantics, canonical keys) and
// internal/campaign for the engine's determinism contract.
type (
	// FailureSet names failed top switches, bottom switches, and trunk
	// cables of a folded Clos.
	FailureSet = topology.FailureSet
	// CampaignConfig parameterizes one fault-injection campaign.
	CampaignConfig = campaign.Config
)

var (
	// RunFaultCampaign sweeps failure counts, rebuilds every scheme per
	// sampled failure set, and reports nonblocking margin vs failures.
	// Parallel runs (Config.Workers > 1) are byte-identical to sequential.
	RunFaultCampaign = campaign.Run
	// NewSparedDeterministicView remaps failed class switches onto spare
	// tops (Theorem 3 with spares).
	NewSparedDeterministicView = routing.NewSparedDeterministicView
)
