// Package fclos is a from-scratch Go reproduction of Xin Yuan,
// "On Nonblocking Folded-Clos Networks in Computer Communication
// Environments" (IPPS 2011). It provides:
//
//   - builders for folded-Clos fat-trees ftree(n+m, r), three-stage Clos
//     networks, m-port n-trees, k-ary n-trees, crossbars and the paper's
//     recursive multi-level nonblocking construction (package
//     internal/topology, re-exported here);
//   - every routing scheme the paper analyzes — the Theorem-3 nonblocking
//     single-path deterministic routing, traffic-oblivious multipath,
//     the local adaptive algorithm NONBLOCKINGADAPTIVE, plus baselines
//     (destination-mod static routing, centralized rearrangeable routing
//     via bipartite edge coloring);
//   - exact and randomized nonblocking verification (Lemma 1 all-pairs
//     analysis, exhaustive and seeded permutation sweeps);
//   - the closed-form nonblocking conditions (Theorems 1, 2, 5; Lemmas 2
//     and 6) and the Table-I cost model;
//   - a deterministic cycle-accurate packet simulator for throughput
//     experiments against a crossbar reference.
//
// Quick start — build the nonblocking network of Theorem 3, route a
// permutation, confirm zero contention:
//
//	sys, _ := fclos.NewDeterministicSystem(4, 20) // ftree(4+16, 20), 80 hosts
//	rep, _ := sys.Verify(0, 0, 0)                 // exact Lemma-1 decision
//	fmt.Println(rep.Nonblocking)                  // true
//
// The cmd/ directory ships CLI tools (ftree, nbverify, nbtables, nbsim)
// and examples/ contains runnable scenario walkthroughs.
package fclos

import (
	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/conditions"
	"repro/internal/core"
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

// Re-exported topology types. See package internal/topology for full
// documentation of each.
type (
	// Network is the directed-graph model all topologies share.
	Network = topology.Network
	// NodeID identifies a host or switch.
	NodeID = topology.NodeID
	// LinkID identifies a directed link.
	LinkID = topology.LinkID
	// Path is a route through a Network.
	Path = topology.Path
	// FoldedClos is the two-level fat-tree ftree(n+m, r).
	FoldedClos = topology.FoldedClos
	// Clos is the three-stage unidirectional Clos(n, m, r).
	Clos = topology.Clos
	// Crossbar is the single-switch reference interconnect.
	Crossbar = topology.Crossbar
	// MPortNTree is the m-port n-tree FT(m, n) of Lin et al.
	MPortNTree = topology.MPortNTree
	// KAryNTree is the k-ary n-tree of Petrini and Vanneschi.
	KAryNTree = topology.KAryNTree
	// ThreeLevelFtree is the recursive 3-level nonblocking construction.
	ThreeLevelFtree = topology.ThreeLevelFtree
	// MultiFtree is the generic L-level recursive nonblocking network.
	MultiFtree = topology.MultiFtree
	// Benes is the rearrangeable Benes network B(k) on 2^k terminals.
	Benes = topology.Benes
	// XGFT is the extended generalized fat tree of Öhring et al.
	XGFT = topology.XGFT
)

// NewFoldedClos builds ftree(n+m, r): r bottom switches with n hosts each,
// m top switches of radix r.
func NewFoldedClos(n, m, r int) *FoldedClos { return topology.NewFoldedClos(n, m, r) }

// NewNonblockingFtree builds ftree(n+n², r), the smallest folded-Clos that
// is nonblocking under single-path deterministic routing (Theorems 2–3).
func NewNonblockingFtree(n, r int) *FoldedClos { return topology.NewFoldedClos(n, n*n, r) }

// NewClos builds the three-stage Clos(n, m, r).
func NewClos(n, m, r int) *Clos { return topology.NewClos(n, m, r) }

// NewCrossbar builds an n-port crossbar.
func NewCrossbar(n int) *Crossbar { return topology.NewCrossbar(n) }

// NewMPortNTree builds the m-port n-tree FT(m, levels).
func NewMPortNTree(m, levels int) *MPortNTree { return topology.NewMPortNTree(m, levels) }

// NewKAryNTree builds the k-ary n-tree.
func NewKAryNTree(k, levels int) *KAryNTree { return topology.NewKAryNTree(k, levels) }

// NewThreeLevelFtree builds the recursive three-level nonblocking network
// with n hosts per bottom switch and r bottom switches (r divisible by n);
// the canonical instance uses r = n³+n².
func NewThreeLevelFtree(n, r int) *ThreeLevelFtree { return topology.NewThreeLevelFtree(n, r) }

// NewMultiFtree builds the canonical L-level recursive nonblocking network
// (n^(L+1)+n^L hosts from (n+n²)-port switches).
func NewMultiFtree(n, levels int) *MultiFtree { return topology.NewMultiFtree(n, levels) }

// NewBenes builds the Benes network B(k) on 2^k terminals.
func NewBenes(k int) *Benes { return topology.NewBenes(k) }

// NewXGFT builds XGFT(h; m…; w…), the per-level-parameterized fat-tree
// family ([13]); XGFT(2; [n, r]; [1, m]) is exactly ftree(n+m, r).
func NewXGFT(h int, m, w []int) *XGFT { return topology.NewXGFT(h, m, w) }

// WriteDOT renders a network in Graphviz DOT format.
var WriteDOT = topology.WriteDOT

// ---------------------------------------------------------------------------
// Permutations
// ---------------------------------------------------------------------------

// Permutation is a (possibly partial) permutation communication pattern
// (Definition 1 of the paper).
type Permutation = permutation.Permutation

// Pair is one source→destination communication.
type Pair = permutation.Pair

// Permutation constructors and generators; see internal/permutation.
var (
	NewPermutation    = permutation.New
	PermFromPairs     = permutation.FromPairs
	PermFromDsts      = permutation.FromDsts
	RandomPermutation = permutation.Random
	RandomPartial     = permutation.RandomPartial
	IdentityPerm      = permutation.Identity
	ShiftPerm         = permutation.Shift
	TransposePerm     = permutation.Transpose
	BitReversalPerm   = permutation.BitReversal
	NeighborPerm      = permutation.Neighbor
	SwitchShiftPerm   = permutation.SwitchShift
	LocalRotatePerm   = permutation.LocalRotate
	GreedyLowSpread   = permutation.GreedyLowSpread
	ButterflyPerm     = permutation.Butterfly
	EnumerateFull     = permutation.EnumerateFull
	EnumerateSubsets  = permutation.EnumerateSubsets
	// ParsePermutation reads "0->3 1->2"-style patterns.
	ParsePermutation = permutation.Parse
)

// BlockSymmetry is the host-relabeling automorphism group S_b ≀ S_r of a
// folded-Clos fabric (hosts interchangeable within a bottom switch, bottom
// switches interchangeable), acting on patterns by conjugation. It backs
// the symmetry-reduced exhaustive sweeps.
type BlockSymmetry = permutation.BlockSymmetry

var (
	// NewBlockSymmetry builds the group for hosts split into blocks of
	// blockSize consecutive hosts; SymFeasible reports whether the reduced
	// enumeration applies to that geometry without building anything.
	NewBlockSymmetry = permutation.NewBlockSymmetry
	SymFeasible      = permutation.SymFeasible
)

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

// Routing types; see internal/routing.
type (
	// Router routes whole communication patterns.
	Router = routing.Router
	// PairRouter is a single-path deterministic router.
	PairRouter = routing.PairRouter
	// Assignment is the set of paths carrying each SD pair.
	Assignment = routing.Assignment
	// NonblockingAdaptive is algorithm NONBLOCKINGADAPTIVE (Fig. 4).
	NonblockingAdaptive = routing.NonblockingAdaptive
	// RouteTable is the precomputed all-pairs link-set cache (CSR layout)
	// behind the incremental sweep engine.
	RouteTable = routing.RouteTable
)

// Route-table construction; see internal/routing.
var (
	// BuildRouteTable precomputes every SD pair's deduplicated link set
	// for a router with pattern-independent paths. It returns
	// ErrPatternDependent for adaptive/global routers.
	BuildRouteTable = routing.BuildRouteTable
	// ErrPatternDependent marks routers whose per-pair link sets cannot
	// be cached.
	ErrPatternDependent = routing.ErrPatternDependent
)

// Router constructors; see internal/routing for the scheme definitions.
var (
	// NewPaperDeterministic is the Theorem-3 routing (requires m ≥ n²).
	NewPaperDeterministic = routing.NewPaperDeterministic
	// NewPaperDeterministicFolded folds top indices mod m (blocks when
	// m < n²; used for tightness experiments).
	NewPaperDeterministicFolded = routing.NewPaperDeterministicFolded
	// NewDestMod / NewSourceMod / NewDestSwitchMod are static baselines.
	NewDestMod       = routing.NewDestMod
	NewSourceMod     = routing.NewSourceMod
	NewDestSwitchMod = routing.NewDestSwitchMod
	// NewRandomFixed freezes a random path per SD pair.
	NewRandomFixed = routing.NewRandomFixed
	// NewFullSpray / NewKSpray / NewPaperMultipath are §IV.B oblivious
	// multipath schemes.
	NewFullSpray      = routing.NewFullSpray
	NewKSpray         = routing.NewKSpray
	NewPaperMultipath = routing.NewPaperMultipath
	// NewNonblockingAdaptive is NONBLOCKINGADAPTIVE (§V).
	NewNonblockingAdaptive = routing.NewNonblockingAdaptive
	// NewGreedyLocal is the local adaptive baseline without Class-DIFF.
	NewGreedyLocal = routing.NewGreedyLocal
	// NewGlobalRearrangeable / NewClosRearrangeable realize the Benes
	// m ≥ n condition by bipartite edge coloring (centralized control).
	NewGlobalRearrangeable = routing.NewGlobalRearrangeable
	NewClosRearrangeable   = routing.NewClosRearrangeable
	// NewBenesLooping routes any permutation on B(k) edge-disjointly
	// via the classic looping algorithm.
	NewBenesLooping = routing.NewBenesLooping
	// EdgeColorBipartite is the coloring engine itself.
	EdgeColorBipartite = routing.EdgeColorBipartite
	// m-port n-tree routers.
	NewMNTDestMod     = routing.NewMNTDestMod
	NewMNTRandomFixed = routing.NewMNTRandomFixed
	NewMNTSpray       = routing.NewMNTSpray
	// k-ary n-tree routers.
	NewKAryDestMod     = routing.NewKAryDestMod
	NewKAryRandomFixed = routing.NewKAryRandomFixed
	// NewThreeLevelPaper routes the recursive 3-level construction;
	// NewMultiLevelPaper the generic L-level one.
	NewThreeLevelPaper = routing.NewThreeLevelPaper
	NewMultiLevelPaper = routing.NewMultiLevelPaper
	// NewCrossbarRouter routes the reference crossbar.
	NewCrossbarRouter = routing.NewCrossbarRouter
	// NewClosOnline manages circuits under the classic telephone model.
	NewClosOnline = routing.NewClosOnline
	// ReplayClosEvents applies an online setup/teardown sequence.
	ReplayClosEvents = routing.Replay
)

// Online circuit-switching types (§II baselines).
type (
	// ClosOnline is the online connection manager.
	ClosOnline = routing.ClosOnline
	// ClosEvent is one setup or teardown request.
	ClosEvent = routing.ClosEvent
	// ClosPolicy selects the middle-switch strategy.
	ClosPolicy = routing.ClosPolicy
	// SparedDeterministic is the fault-hardened Theorem-3 router.
	SparedDeterministic = routing.SparedDeterministic
)

// Online middle-switch selection policies.
const (
	// PolicyFirstFit realizes Clos strict-sense behaviour at m ≥ 2n−1.
	PolicyFirstFit = routing.FirstFit
	// PolicyPacking is the Yang–Wang wide-sense strategy.
	PolicyPacking = routing.Packing
	// PolicyLeastLoaded spreads circuits (provably inferior).
	PolicyLeastLoaded = routing.LeastLoaded
)

// ---------------------------------------------------------------------------
// Analysis and verification
// ---------------------------------------------------------------------------

// Analysis types; see internal/analysis.
type (
	// ContentionReport is the per-link load analysis of an assignment.
	ContentionReport = analysis.Report
	// Lemma1Result is the exact all-pairs nonblocking decision: the
	// verdict plus, when blocking, the lowest violating link's view. It
	// holds no per-link views of the other links; LinkViews builds those.
	Lemma1Result = analysis.Lemma1Result
	// SweepResult summarizes a permutation sweep.
	SweepResult = analysis.SweepResult
	// SymStats reports how a symmetry-reduced sweep executed (applied vs
	// fell back, orbit count, group order).
	SymStats = analysis.SymStats
	// Checker is the reusable flat-array contention accounting scratch
	// backing CheckContention and the sweeps; hoist one outside a loop to
	// analyze many patterns without per-pattern allocation.
	Checker = analysis.Checker
	// DeltaChecker is the incremental counterpart of Checker for
	// swap-adjacent enumerations over a precomputed RouteTable.
	DeltaChecker = analysis.DeltaChecker
)

// Verification entry points; see internal/analysis.
var (
	// CheckContention computes link loads of a routed pattern.
	CheckContention = analysis.Check
	// ComputeLoadStats summarizes a routed pattern's per-link load
	// distribution.
	ComputeLoadStats = analysis.ComputeLoadStats
	// NewChecker builds a reusable Checker (nil network is allowed; the
	// scratch grows on demand).
	NewChecker = analysis.NewChecker
	// NewDeltaChecker builds an incremental checker over a RouteTable.
	NewDeltaChecker = analysis.NewDeltaChecker
	// CheckLemma1AllPairs decides nonblocking exactly for deterministic
	// routing (Lemma 1).
	CheckLemma1AllPairs = analysis.CheckLemma1AllPairs
	// LinkViews groups all SD pairs by the links they cross: the per-link
	// (Fig. 3) accounting of every loaded link.
	LinkViews = analysis.LinkViews
	// BlockingWitness extracts a blocked two-pair permutation from a
	// Lemma-1 violation.
	BlockingWitness = analysis.BlockingWitness
	// SweepExhaustive / SweepRandom test many permutations;
	// SweepExhaustiveParallel shards the n! patterns over a worker pool.
	// Routers with pattern-independent paths are swept by the incremental
	// delta engine over a precomputed RouteTable; SweepExhaustiveOracle
	// forces the per-pattern reference engine, and
	// SweepExhaustiveFirstBlocked stops at the first contended pattern.
	SweepExhaustive             = analysis.SweepExhaustive
	SweepExhaustiveParallel     = analysis.SweepExhaustiveParallel
	SweepExhaustiveOracle       = analysis.SweepExhaustiveOracle
	SweepExhaustiveFirstBlocked = analysis.SweepExhaustiveFirstBlocked
	SweepRandom                 = analysis.SweepRandom

	// Symmetry-reduced sweeps: byte-identical to their full counterparts,
	// sweeping one canonical representative per BlockSymmetry orbit (with
	// counters scaled by orbit size) wherever the routing is equivariant,
	// and falling back to the full engine where it is not. SymApplicable
	// prechecks applicability without sweeping.
	SweepExhaustiveSym             = analysis.SweepExhaustiveSym
	SweepExhaustiveSymCtx          = analysis.SweepExhaustiveSymCtx
	SweepExhaustiveSymFirstBlocked = analysis.SweepExhaustiveSymFirstBlocked
	SymApplicable                  = analysis.SymApplicable

	// The Ctx variants accept a context.Context and support cooperative
	// cancellation: workers poll the context on a stride outside the
	// per-pattern hot loop, so a context.Background() run costs one nil
	// check per pattern and matches the plain variants exactly. On
	// cancellation they return the partial result plus ctx.Err().
	SweepExhaustiveCtx             = analysis.SweepExhaustiveCtx
	SweepExhaustiveParallelCtx     = analysis.SweepExhaustiveParallelCtx
	SweepExhaustiveOracleCtx       = analysis.SweepExhaustiveOracleCtx
	SweepExhaustiveFirstBlockedCtx = analysis.SweepExhaustiveFirstBlockedCtx
	SweepRandomCtx                 = analysis.SweepRandomCtx
	// BlockingProbability estimates P(contention) over random
	// permutations.
	BlockingProbability = analysis.BlockingProbability
	// MaxRootPairsModes / MaxRootPairsNaive / RootSetWitness /
	// CheckRootSet are the Lemma-2 exact searches.
	MaxRootPairsModes = analysis.MaxRootPairsModes
	MaxRootPairsNaive = analysis.MaxRootPairsNaive
	RootSetWitness    = analysis.RootSetWitness
	CheckRootSet      = analysis.CheckRootSet
)

// WorstCaseSearch hill-climbs for maximally contended permutations.
type WorstCaseSearch = analysis.WorstCaseSearch

// Analytic randomized-routing model ([6]); see internal/analysis.
var (
	// ModelRandomClearProb approximates P(random permutation clear)
	// under uniform random top-switch choices.
	ModelRandomClearProb = analysis.ModelRandomClearProb
	// MeasureRandomClearProb estimates the same by Monte Carlo.
	MeasureRandomClearProb = analysis.MeasureRandomClearProb
	// ModelExpectedCollisions is the first-order collision count 2r·C(n,2)/m.
	ModelExpectedCollisions = analysis.ModelExpectedCollisions
	// WorstCaseLinkLoad computes the exact worst-case permutation load
	// per link (maximum matching); WorstCasePermutationFor constructs a
	// permutation realizing it.
	WorstCaseLinkLoad       = analysis.WorstCaseLinkLoad
	WorstCasePermutationFor = analysis.WorstCasePermutationFor
)

// ---------------------------------------------------------------------------
// Conditions (closed forms) and cost model
// ---------------------------------------------------------------------------

// Closed-form conditions; see internal/conditions.
var (
	Lemma2Cap                          = conditions.Lemma2Cap
	CrossSwitchPairs                   = conditions.CrossSwitchPairs
	DeterministicMinM                  = conditions.DeterministicMinM
	IsDeterministicNonblockingFeasible = conditions.IsDeterministicNonblockingFeasible
	SmallTopMinM                       = conditions.SmallTopMinM
	Theorem1PortBound                  = conditions.Theorem1PortBound
	SmallestC                          = conditions.SmallestC
	AdaptiveSimpleM                    = conditions.AdaptiveSimpleM
	AdaptiveRecurrenceT                = conditions.AdaptiveRecurrenceT
	AdaptiveTheorem5M                  = conditions.AdaptiveTheorem5M
	AdaptiveAsymptote                  = conditions.AdaptiveAsymptote
	Lemma6MinSpread                    = conditions.Lemma6MinSpread
	Lemma6Spread                       = conditions.Lemma6Spread
	ClosStrictM                        = conditions.ClosStrictM
	ClosRearrangeableM                 = conditions.ClosRearrangeableM
)

// Cost-model types; see internal/cost.
type (
	// Design summarizes one interconnect build.
	Design = cost.Design
	// TableIRow is one row of the paper's Table I.
	TableIRow = cost.TableIRow
	// ScalingRow compares 2- and 3-level constructions.
	ScalingRow = cost.ScalingRow
)

// Cost-model entry points; see internal/cost.
var (
	// TableI regenerates Table I for given building-block sizes.
	TableI = cost.TableI
	// PaperTableI is Table I with 20/30/42-port switches.
	PaperTableI = cost.PaperTableI
	// NonblockingFtreeDesign is the ftree(n+n², n+n²) cost row.
	NonblockingFtreeDesign = cost.NonblockingFtree
	// ThreeLevelNonblockingDesign is the recursive 3-level cost row.
	ThreeLevelNonblockingDesign = cost.ThreeLevelNonblocking
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
	// SimResult is one run's metrics.
	SimResult = sim.Result
	// SimFlow is one SD pair's traffic.
	SimFlow = sim.Flow
	// ThroughputSummary aggregates crossbar-relative performance.
	ThroughputSummary = sim.ThroughputSummary
)

// Simulator entry points; see internal/sim.
var (
	// Simulate runs flows over a network.
	Simulate = sim.Run
	// SimulatePermutation routes then simulates one pattern.
	SimulatePermutation = sim.RunPermutation
	// CrossbarReference simulates the pattern on an ideal crossbar.
	CrossbarReference = sim.CrossbarReference
	// FlowsFromAssignment adapts routing output for the simulator.
	FlowsFromAssignment = sim.FlowsFromAssignment
	// RunTrials simulates seeded random permutations and CompareToCrossbar
	// reports their slowdown statistics; both take a worker count and give
	// the same output for every count.
	RunTrials         = sim.RunTrials
	CompareToCrossbar = sim.CompareToCrossbar
	// OpenLoop runs one rate-injected (open-loop) simulation;
	// OpenLoopResult.Undelivered reports in-flight packets on saturated
	// aborts. LoadSweepParallel runs it at each offered load, one
	// goroutine per load.
	OpenLoop          = sim.OpenLoop
	LoadSweepParallel = sim.LoadSweepParallel
	// PairPathsFunc / MultiPathsFunc / AssignmentPathsFunc adapt routers
	// for open-loop runs; PermPairs converts a destination vector.
	PairPathsFunc       = sim.PairPathsFunc
	MultiPathsFunc      = sim.MultiPathsFunc
	AssignmentPathsFunc = sim.AssignmentPathsFunc
	PermPairs           = sim.PermPairs
)

// Open-loop simulation types.
type (
	// OpenLoopConfig parameterizes rate-injected runs.
	OpenLoopConfig = sim.OpenLoopConfig
	// OpenLoopResult is one open-loop run's metrics.
	OpenLoopResult = sim.OpenLoopResult
	// LoadSweepPoint is one offered-load sample.
	LoadSweepPoint = sim.LoadSweepPoint
)

// Observability types; see internal/sim. Attaching a Collector to a
// SimConfig/OpenLoopConfig records per-link utilization and queue depths,
// the per-stage hop-latency breakdown, and the end-to-end latency
// histogram; with no collector the engines pay nothing.
type (
	// Metrics is one run's (or merge's) observability payload.
	Metrics = sim.Metrics
	// LinkStats is per-link busy/queue accounting.
	LinkStats = sim.LinkStats
	// StageStats is the per-pipeline-stage hop-latency breakdown.
	StageStats = sim.StageStats
	// Histogram is the power-of-two-bucket latency histogram.
	Histogram = sim.Histogram
	// Collector is the engine-side observability interface.
	Collector = sim.Collector
	// MetricsCollector is the pooled default Collector.
	MetricsCollector = sim.MetricsCollector
)

// Observability entry points; see internal/sim.
var (
	// NewMetricsCollector returns a reusable default collector.
	NewMetricsCollector = sim.NewMetricsCollector
	// AggregateMetrics merges per-trial metrics in trial order.
	AggregateMetrics = sim.AggregateMetrics
	// StageName names a pipeline stage for reports and JSON.
	StageName = sim.StageName
)

// Pipeline stages of a folded-Clos traversal, as reported by StageStats.
const (
	StageInjection = sim.StageInjection
	StageUp        = sim.StageUp
	StageDown      = sim.StageDown
	StageDrain     = sim.StageDrain
	NumStages      = sim.NumStages
)

// Simulator enum re-exports.
const (
	// ArbiterOldestFirst serves the longest-waiting packet.
	ArbiterOldestFirst = sim.OldestFirst
	// ArbiterRoundRobin cycles over flows.
	ArbiterRoundRobin = sim.RoundRobin
	// SprayRoundRobin / SprayRandom pick multipath packets' paths.
	SprayRoundRobin = sim.SprayRoundRobin
	SprayRandom     = sim.SprayRandom
	// AdaptLocal / AdaptOracle select the in-network adaptive modes.
	AdaptLocal  = sim.AdaptLocal
	AdaptOracle = sim.AdaptOracle
)

// RunFtreeAdaptive simulates per-packet in-network adaptive trunk
// selection on a folded-Clos (E16; the [1]/[9] baseline).
var RunFtreeAdaptive = sim.RunFtreeAdaptive

// ---------------------------------------------------------------------------
// Collective workloads
// ---------------------------------------------------------------------------

// Workload types; see internal/workload.
type (
	// Workload is a sequence of permutation phases (BSP collectives).
	Workload = workload.Workload
	// WorkloadResult aggregates a simulated workload run.
	WorkloadResult = workload.Result
)

// Collective workload generators and runners; see internal/workload.
var (
	// AllToAll / ButterflyExchange / RingExchange / Stencil2D /
	// TransposeWorkload / RandomPhases build standard collectives.
	AllToAll          = workload.AllToAll
	ButterflyExchange = workload.ButterflyExchange
	RingExchange      = workload.RingExchange
	Stencil2D         = workload.Stencil2D
	TransposeWorkload = workload.TransposeWorkload
	RandomPhases      = workload.RandomPhases
	// RunWorkload simulates a workload phase by phase;
	// RunWorkloadCrossbar is the ideal reference.
	RunWorkload         = workload.Run
	RunWorkloadCrossbar = workload.RunCrossbar
)

// ---------------------------------------------------------------------------
// High-level systems (the paper's contribution, assembled)
// ---------------------------------------------------------------------------

// System pairs a folded-Clos network with the router that makes it
// nonblocking; see internal/core.
type (
	System       = core.System
	VerifyReport = core.VerifyReport
	RoutingClass = core.RoutingClass
	Proposal     = core.Proposal
)

// Routing classes for Plan and System.
const (
	Deterministic       = core.Deterministic
	LocalAdaptive       = core.LocalAdaptive
	GlobalRearrangeable = core.GlobalRearrangeable
)

// System constructors and the design planner; see internal/core.
var (
	// NewDeterministicSystem builds ftree(n+n², r) + Theorem-3 routing.
	NewDeterministicSystem = core.NewDeterministicSystem
	// NewAdaptiveSystem builds ftree(n+m, r) + NONBLOCKINGADAPTIVE.
	NewAdaptiveSystem = core.NewAdaptiveSystem
	// NewRearrangeableSystem builds the centralized m = n baseline.
	NewRearrangeableSystem = core.NewRearrangeableSystem
	// Plan enumerates nonblocking designs for a switch radix.
	Plan = core.Plan
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
	// DesignFrontierPoint is one decided candidate on the frontier.
	DesignFrontierPoint = api.DesignPoint
	// DesignOptions configures a PlanDesignSpace run (tier-2 verifier,
	// probe memo, pruning toggle).
	DesignOptions = design.Options
)

// Explorer entry points; see internal/design.
var (
	// PlanDesignSpace enumerates a catalog and decides every candidate
	// through the three-tier planner (closed forms, monotone binary search
	// plus dominance pruning, memoized verification sweeps).
	PlanDesignSpace = design.Plan
	// ValidateDesignCatalog rejects malformed catalogs before enumeration.
	ValidateDesignCatalog = design.ValidateCatalog
	// ReplayDesignCondition re-derives a frontier point's tier-0 condition
	// and checks its certificate's structural consistency.
	ReplayDesignCondition = design.ReplayCondition
)

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
	// FailedTrunk is one failed bottom↔top duplex cable.
	FailedTrunk = topology.Trunk
	// FailureView is a FailureSet bound to a fabric for O(1) health
	// lookups.
	FailureView = topology.FailureView
	// CampaignConfig parameterizes one fault-injection campaign.
	CampaignConfig = campaign.Config
	// FailureScenario selects the failure-set sampler (links, tops,
	// tops-correlated, pods).
	FailureScenario = campaign.Scenario
	// FaultCampaignReport is the per-scheme degradation curves (the JSON
	// schema shared with POST /v1/failures).
	FaultCampaignReport = api.FailuresReport
)

// Campaign entry points and the fault-routing zoo; see internal/campaign
// and internal/routing.
var (
	// RunFaultCampaign sweeps failure counts, rebuilds every scheme per
	// sampled failure set, and reports nonblocking margin vs failures.
	// Parallel runs (Config.Workers > 1) are byte-identical to sequential.
	RunFaultCampaign = campaign.Run
	// RenderFaultCampaign writes a report as text tables.
	RenderFaultCampaign = campaign.Render
	// SampleFailures draws one failure set of a scenario.
	SampleFailures = campaign.SampleFailures
	// DefaultFaultSchemes lists the four campaign routing schemes.
	DefaultFaultSchemes = campaign.DefaultSchemes
	// BuildFaultRouter instantiates a campaign scheme against a view.
	BuildFaultRouter = campaign.BuildRouter
	// NewLocalReroute is Bankhamer-style randomized local fast rerouting:
	// deflections at the point of failure, no global recomputation.
	NewLocalReroute = routing.NewLocalReroute
	// NewAvoidingAdaptive routes around a failure view with the
	// nonblocking adaptive assignment over the healthy top switches.
	NewAvoidingAdaptive = routing.NewAvoidingAdaptive
	// NewSparedDeterministicView remaps failed class switches onto spare
	// tops (Theorem 3 with spares).
	NewSparedDeterministicView = routing.NewSparedDeterministicView
	// NewNaiveRemapView is the negative control: each failed class switch
	// folded onto the next intact class switch, destroying the Theorem-3
	// conflict-freedom.
	NewNaiveRemapView = routing.NewNaiveRemapView
)
