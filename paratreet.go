// Package paratreet is a Go implementation of ParaTreeT, the parallel tree
// toolkit for spatial tree traversals (Hutter et al., IPDPS 2022). It
// provides the paper's core abstractions — trees adorned with
// application-defined Data accumulated leaves-to-root, traversals pruned by
// application-defined Visitors, the Partitions-Subtrees decomposition model
// that divides load and memory independently, and a wait-free shared-memory
// software cache for remote tree data — on top of a simulated distributed
// runtime of processes and worker threads.
//
// A minimal application defines three things, mirroring the paper's
// 135-line Barnes-Hut gravity code:
//
//   - a Data type with an Accumulator (leaf constructor, identity, merge),
//   - a Visitor (Open / Node / Leaf),
//   - a Driver that launches traversals each iteration.
//
// See examples/quickstart for a complete program.
//
// Beyond the batch Run loop, the build and query lifecycles are also
// available separately: Simulation.BuildOnly constructs the resident tree
// without traversing, and the Wave API (NewWave, WaveDown, WaveUpAndDown,
// Wave.Wait) launches reentrant ad-hoc traversal waves over it — the
// foundation of the internal/serve query service and its
// cmd/paratreet-serve daemon, which answer kNN, range, and collision-probe
// queries over HTTP from one resident tree, coalescing concurrent requests
// into shared waves.
package paratreet

import (
	"paratreet/internal/cache"
	"paratreet/internal/core"
	"paratreet/internal/decomp"
	"paratreet/internal/lb"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// Re-exported geometry and particle vocabulary.
type (
	// Vec3 is a 3-D vector.
	Vec3 = vec.Vec3
	// Box is an axis-aligned bounding box.
	Box = vec.Box
	// Sphere is a center plus squared radius.
	Sphere = vec.Sphere
	// Particle is a simulation body.
	Particle = particle.Particle
	// Bucket is a traversal target: a leaf bucket with writable particles.
	Bucket = traverse.Bucket
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return vec.V(x, y, z) }

// Generic abstractions (aliases into the implementation packages).
type (
	// Node is a spatial tree node adorned with application Data.
	Node[D any] = tree.Node[D]
	// Accumulator is the Data abstraction: leaf extraction, identity, merge.
	Accumulator[D any] = tree.Accumulator[D]
	// DataCodec serializes Data for remote fills.
	DataCodec[D any] = tree.DataCodec[D]
	// Visitor is the traversal abstraction: Open / Node / Leaf.
	Visitor[D any] = traverse.Visitor[D]
	// SourceVisitor is the optional source-major form of a Visitor: one
	// call per tree node over the list of active buckets.
	SourceVisitor[D any] = traverse.SourceVisitor[D]
	// DualVisitor adds the cell() decision for dual-tree traversals.
	DualVisitor[D any] = traverse.DualVisitor[D]
	// Partition owns a slice of the particle load as buckets.
	Partition[D any] = core.Partition[D]
)

// BuildStats describes the most recent iteration's build: which path ran
// (scratch or incremental) and what the incremental patch reused.
type BuildStats = core.BuildStats

// TreeType selects the spatial subdivision strategy.
type TreeType = tree.Type

// Built-in tree types.
const (
	// TreeOct is the octree.
	TreeOct = tree.Octree
	// TreeKD is the k-d tree (median splits, cycling dimensions).
	TreeKD = tree.KD
	// TreeLongestDim is the longest-dimension median tree (disks).
	TreeLongestDim = tree.LongestDim
)

// DecompType selects the partition decomposition strategy.
type DecompType = decomp.Type

// Built-in decomposition types.
const (
	// DecompSFC slices the Morton space-filling curve.
	DecompSFC = decomp.SFCMorton
	// DecompSFCHilbert slices the Hilbert curve.
	DecompSFCHilbert = decomp.SFCHilbert
	// DecompOct assigns whole octree nodes.
	DecompOct = decomp.Oct
	// DecompORB recursively bisects space at particle medians.
	DecompORB = decomp.ORB
)

// CachePolicy selects the software-cache insertion model.
type CachePolicy = cache.Policy

// Built-in cache policies (§II-B, Fig 3).
const (
	// CacheWaitFree is the paper's wait-free shared-memory model.
	CacheWaitFree = cache.WaitFree
	// CacheXWrite locks every insertion ("exclusive-write").
	CacheXWrite = cache.XWrite
	// CachePerThread gives each worker a private cache (the paper's
	// "Sequential" comparison model).
	CachePerThread = cache.PerThread
)

// TraversalStyle selects the top-down loop organization.
type TraversalStyle = traverse.Style

// Built-in traversal styles.
const (
	// StyleTransposed is ParaTreeT's locality-enhancing transposition.
	StyleTransposed = traverse.Transposed
	// StylePerBucket walks the tree once per bucket ("BasicTrav").
	StylePerBucket = traverse.PerBucket
)

// CellAction is the outcome of a dual-tree cell() decision.
type CellAction = traverse.CellAction

// Dual-tree cell() outcomes.
const (
	// CellPrune skips the pair.
	CellPrune = traverse.CellPrune
	// CellApprox applies Node to the whole target group.
	CellApprox = traverse.CellApprox
	// CellOpenSource descends the source only.
	CellOpenSource = traverse.CellOpenSource
	// CellOpenTarget splits the target group only.
	CellOpenTarget = traverse.CellOpenTarget
	// CellOpenBoth refines both sides.
	CellOpenBoth = traverse.CellOpenBoth
)

// LBMode selects the load balancer.
type LBMode = lb.Mode

// Built-in load balancers.
const (
	// LBOff keeps the static block placement.
	LBOff = lb.Off
	// LBSFC re-slices the space-filling curve by measured load.
	LBSFC = lb.SFC
	// LBSpatial recursively bisects partitions in space by load.
	LBSpatial = lb.Spatial
)

// Phase labels runtime utilization categories (Fig 9).
type Phase = rt.Phase

// Runtime phases.
const (
	PhaseTreeBuild      = rt.PhaseTreeBuild
	PhaseTopShare       = rt.PhaseTopShare
	PhaseLocalTraversal = rt.PhaseLocalTraversal
	PhaseCacheRequest   = rt.PhaseCacheRequest
	PhaseCacheInsert    = rt.PhaseCacheInsert
	PhaseResume         = rt.PhaseResume
	PhaseLeafShare      = rt.PhaseLeafShare
	PhaseIdle           = rt.PhaseIdle
	PhaseOther          = rt.PhaseOther
	NumPhases           = rt.NumPhases
)

// StatsSnapshot is a copy of the runtime's communication counters.
type StatsSnapshot = rt.StatsSnapshot

// FaultConfig specifies deterministic message-delivery fault injection;
// set it on Config.Faults. See rt.FaultConfig for field semantics.
type FaultConfig = rt.FaultConfig

// Observability layer (re-exported from internal/metrics). Construct a
// registry with NewMetricsRegistry, set it on Config.Metrics, and read
// results with Simulation.MetricsSnapshot.
type (
	// MetricsRegistry is the root of the observability layer: a named set
	// of sharded counters, gauges, quantile sketches, and an optional span
	// tracer. A nil registry disables all collection.
	MetricsRegistry = metrics.Registry
	// MetricsOptions sizes a registry (counter shards, trace capacity).
	MetricsOptions = metrics.Options
	// MetricsSnapshot is a machine-readable profile of one run.
	MetricsSnapshot = metrics.Snapshot
	// MetricsSpan is one timestamped trace span.
	MetricsSpan = metrics.Span
	// WorkerUtil is one worker's busy/idle/tasks utilization profile.
	WorkerUtil = metrics.WorkerUtil
	// CommEdge is the message/byte volume between one pair of processes.
	CommEdge = metrics.CommEdge
)

// NewMetricsRegistry constructs an enabled metrics registry.
func NewMetricsRegistry(opts MetricsOptions) *MetricsRegistry {
	return metrics.NewRegistry(opts)
}
