package paratreet

import (
	"fmt"
	"time"

	"paratreet/internal/cache"
	"paratreet/internal/core"
	"paratreet/internal/lb"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/traverse"
	"paratreet/internal/vec"
)

// Driver customizes per-iteration behavior, mirroring the paper's
// Driver::traversal() and Driver::postTraversal() (Fig 8). Traversal
// launches tree traversals (via StartDown and friends); when it returns,
// the library waits for global quiescence. PostTraversal then performs
// non-traversal work such as integration or collision resolution.
type Driver[D any] interface {
	Traversal(s *Simulation[D], iter int)
	PostTraversal(s *Simulation[D], iter int)
}

// DriverFuncs adapts two funcs to the Driver interface.
type DriverFuncs[D any] struct {
	TraversalFn     func(s *Simulation[D], iter int)
	PostTraversalFn func(s *Simulation[D], iter int)
}

// Traversal implements Driver.
func (d DriverFuncs[D]) Traversal(s *Simulation[D], iter int) {
	if d.TraversalFn != nil {
		d.TraversalFn(s, iter)
	}
}

// PostTraversal implements Driver.
func (d DriverFuncs[D]) PostTraversal(s *Simulation[D], iter int) {
	if d.PostTraversalFn != nil {
		d.PostTraversalFn(s, iter)
	}
}

// Simulation owns a simulated machine, the Partitions-Subtrees world, and
// the canonical particle state across iterations.
type Simulation[D any] struct {
	cfg       Config
	machine   *rt.Machine
	world     *core.World[D]
	particles []particle.Particle

	iter          int
	lastIterTime  time.Duration
	lastBuildTime time.Duration
	loadSinks     []func()
	stopped       bool
}

// NewSimulation constructs a simulation over ps (which it takes ownership
// of), with the application's Data accumulator and codec. Call Close (or
// Run to completion) to release the machine's goroutines.
func NewSimulation[D any](cfg Config, acc Accumulator[D], codec DataCodec[D], ps []Particle) (*Simulation[D], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("paratreet: no particles")
	}
	m := rt.NewMachine(rt.Config{
		Procs:          cfg.Procs,
		WorkersPerProc: cfg.WorkersPerProc,
		Latency:        cfg.Latency,
		PerByte:        cfg.PerByte,
		Metrics:        cfg.Metrics,
		Faults:         cfg.Faults,
	})
	world := core.NewWorld(m, core.Config{
		TreeType:     cfg.Tree,
		DecompType:   cfg.Decomp,
		BucketSize:   cfg.BucketSize,
		Partitions:   cfg.Partitions,
		Subtrees:     cfg.Subtrees,
		FetchDepth:   cfg.FetchDepth,
		CachePolicy:  cfg.CachePolicy,
		ShareDepth:   cfg.ShareDepth,
		BuildWorkers: cfg.BuildWorkers,
		Retry:        cache.RetryPolicy{Timeout: cfg.fetchTimeout()},
		Incremental:  cfg.Incremental,
	}, acc, codec)
	m.Start()
	return &Simulation[D]{cfg: cfg, machine: m, world: world, particles: ps}, nil
}

// Close stops the simulated machine. Safe to call more than once.
func (s *Simulation[D]) Close() {
	if !s.stopped {
		s.stopped = true
		s.machine.Stop()
	}
}

// BuildOnly runs the build/refresh path of one iteration — universe
// reduction, decomposition, parallel subtree builds, top share, leaf
// share, and the particle census — without launching any traversal. On
// return the machine is settled and every cache presents its view of the
// freshly built global tree, ready either for a driver's traversal (Run
// calls BuildOnly per iteration) or for ad-hoc query waves (NewWave,
// WaveDown, WaveUpAndDown) against the resident tree.
func (s *Simulation[D]) BuildOnly() error {
	if err := s.world.BuildIteration(s.particles); err != nil {
		return fmt.Errorf("paratreet: iteration %d build: %w", s.iter, err)
	}
	s.lastBuildTime = s.world.BuildTime
	return s.world.CheckCensus(len(s.particles))
}

// SetParticles replaces the canonical particle state (taking ownership of
// ps); the next BuildOnly or Run iteration decomposes the new set. It must
// not be called while traversals or query waves are in flight.
func (s *Simulation[D]) SetParticles(ps []Particle) error {
	if len(ps) == 0 {
		return fmt.Errorf("paratreet: no particles")
	}
	s.particles = ps
	return nil
}

// Run executes n iterations: build (decompose, subtree build, top share,
// leaf share), the driver's traversal launch, quiescence, load
// measurement, the driver's post-traversal step, particle gather, and
// periodic load balancing.
func (s *Simulation[D]) Run(n int, driver Driver[D]) error {
	for i := 0; i < n; i++ {
		iterStart := time.Now()
		if err := s.BuildOnly(); err != nil {
			return err
		}
		s.loadSinks = s.loadSinks[:0]
		driver.Traversal(s, s.iter)
		s.machine.WaitQuiescence()
		for _, sink := range s.loadSinks {
			sink()
		}
		driver.PostTraversal(s, s.iter)
		s.machine.WaitQuiescence()
		s.particles = s.world.Gather(s.particles)
		s.lastIterTime = time.Since(iterStart)
		s.iter++
		if s.cfg.LB != LBOff && s.cfg.LBPeriod > 0 && s.iter%s.cfg.LBPeriod == 0 {
			if err := s.balanceLoad(); err != nil {
				return err
			}
		}
	}
	return nil
}

// balanceLoad computes a new partition placement from measured loads.
func (s *Simulation[D]) balanceLoad() error {
	parts := s.world.Partitions
	loads := make([]int64, len(parts))
	for i, p := range parts {
		loads[i] = p.LoadNanos
	}
	var homes []int
	var err error
	switch s.cfg.LB {
	case LBSFC:
		homes, err = lb.SFCMap(loads, s.machine.NumProcs())
	case LBSpatial:
		centers := make([]vec.Vec3, len(parts))
		for i, p := range parts {
			box := vec.EmptyBox()
			for _, b := range p.Buckets() {
				box = box.Union(b.Box)
			}
			centers[i] = box.Center()
		}
		homes, err = lb.SpatialMap(centers, loads, s.machine.NumProcs())
	default:
		return nil
	}
	if err != nil {
		return err
	}
	// Window boundary: the collected loads cover the iterations since the
	// last balance; zero the accumulators so the next window measures only
	// its own work instead of the whole run's (which would make migration
	// blind to load shifts).
	for _, p := range parts {
		p.LoadNanos = 0
	}
	return s.world.SetHomes(homes)
}

// BuildStats returns what the most recent iteration's build did: whether
// it reused resident subtrees ("incremental") or none ("scratch", with
// the reason when Config.Incremental asked for reuse), and how much work
// the reuse avoided.
func (s *Simulation[D]) BuildStats() BuildStats { return s.world.BuildStats() }

// Iter returns the number of completed iterations.
func (s *Simulation[D]) Iter() int { return s.iter }

// Particles returns the canonical particle state (valid between
// iterations and after Run).
func (s *Simulation[D]) Particles() []Particle { return s.particles }

// Universe returns the current global bounding box.
func (s *Simulation[D]) Universe() Box { return s.world.Universe }

// LastIterTime returns the wall time of the most recent iteration.
func (s *Simulation[D]) LastIterTime() time.Duration { return s.lastIterTime }

// LastBuildTime returns the decomposition + tree build + top share time of
// the most recent iteration.
func (s *Simulation[D]) LastBuildTime() time.Duration { return s.lastBuildTime }

// LeafShareTime returns the duration of the most recent leaf-sharing step.
func (s *Simulation[D]) LeafShareTime() time.Duration { return s.world.LeafShareTime }

// SplitBuckets returns how many buckets the most recent leaf sharing split
// across partition borders.
func (s *Simulation[D]) SplitBuckets() int { return s.world.SplitBuckets }

// Partitions returns all partitions of the current iteration.
func (s *Simulation[D]) Partitions() []*Partition[D] { return s.world.Partitions }

// Stats returns the machine-wide communication counters.
func (s *Simulation[D]) Stats() StatsSnapshot { return s.machine.TotalStats() }

// ResetStats zeroes counters and phase timers (between measurement runs).
func (s *Simulation[D]) ResetStats() { s.machine.ResetStats() }

// PhaseTotals returns cumulative per-phase times across all workers.
func (s *Simulation[D]) PhaseTotals() [NumPhases]time.Duration { return s.machine.PhaseTotals() }

// MetricsSnapshot assembles the observability snapshot for this
// simulation: every registered counter, gauge, and sketch, per-phase times,
// per-worker utilization, the proc-pair communication matrix, recorded
// trace spans, and the simulation's configuration as labels. Returns nil
// when Config.Metrics was not set.
func (s *Simulation[D]) MetricsSnapshot() *metrics.Snapshot {
	snap := s.machine.MetricsSnapshot()
	if snap == nil {
		return nil
	}
	snap.Config = map[string]string{
		"tree":             s.cfg.Tree.String(),
		"decomp":           s.cfg.Decomp.String(),
		"cache_policy":     s.cfg.CachePolicy.String(),
		"style":            s.cfg.Style.String(),
		"procs":            fmt.Sprintf("%d", s.machine.NumProcs()),
		"workers_per_proc": fmt.Sprintf("%d", s.cfg.WorkersPerProc),
		"partitions":       fmt.Sprintf("%d", len(s.world.Partitions)),
		"particles":        fmt.Sprintf("%d", len(s.particles)),
	}
	return snap
}

// Machine exposes the underlying simulated machine (advanced use).
func (s *Simulation[D]) Machine() *rt.Machine { return s.machine }

// World exposes the Partitions-Subtrees state (advanced use).
func (s *Simulation[D]) World() *core.World[D] { return s.world }

// StartDown launches a top-down traversal on every partition, with a
// visitor built per partition; the paper's partitions().startDown<V>().
// Call from Driver.Traversal. The traversal style comes from the Config.
func StartDown[D any, V traverse.Visitor[D]](s *Simulation[D], visitorFor func(p *Partition[D]) V) {
	for _, p := range s.world.Partitions {
		p := p
		c := s.world.Caches[p.Home]
		view := c.ViewFor(p.ID % s.machine.Proc(p.Home).NumWorkers())
		tr := traverse.NewTopDown(s.machine.Proc(p.Home), c, view, p.Buckets(), visitorFor(p), s.cfg.Style, nil)
		s.loadSinks = append(s.loadSinks, func() { p.LoadNanos += tr.WorkNanos.Load() })
		tr.Start()
	}
}

// StartUpAndDown launches the up-and-down traversal (k-nearest-neighbor
// style) on every partition.
func StartUpAndDown[D any, V traverse.Visitor[D]](s *Simulation[D], visitorFor func(p *Partition[D]) V) {
	for _, p := range s.world.Partitions {
		p := p
		c := s.world.Caches[p.Home]
		view := c.ViewFor(p.ID % s.machine.Proc(p.Home).NumWorkers())
		u := traverse.NewUpDown(s.machine.Proc(p.Home), c, view, p.Buckets(), visitorFor(p), nil)
		s.loadSinks = append(s.loadSinks, func() { p.LoadNanos += u.WorkNanos.Load() })
		u.Start()
	}
}

// StartDual launches a dual-tree traversal on every partition.
func StartDual[D any, V traverse.DualVisitor[D]](s *Simulation[D], groupLeafSize int, visitorFor func(p *Partition[D]) V) {
	for _, p := range s.world.Partitions {
		p := p
		c := s.world.Caches[p.Home]
		view := c.ViewFor(p.ID % s.machine.Proc(p.Home).NumWorkers())
		d := traverse.NewDual(s.machine.Proc(p.Home), c, view, p.Buckets(), visitorFor(p), groupLeafSize, nil)
		s.loadSinks = append(s.loadSinks, func() { p.LoadNanos += d.WorkNanos.Load() })
		d.Start()
	}
}

// ForEachBucket applies fn to every bucket of every partition (between
// traversals or in PostTraversal).
func (s *Simulation[D]) ForEachBucket(fn func(p *Partition[D], b *Bucket)) {
	for _, p := range s.world.Partitions {
		for _, b := range p.Buckets() {
			fn(p, b)
		}
	}
}
