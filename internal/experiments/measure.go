package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"paratreet"
	"paratreet/internal/particle"
)

// MetricsCollector accumulates labeled observability snapshots across an
// experiment's simulation runs, one per (config, worker-count) cell —
// e.g. the per-policy cache counters behind the Fig 3 comparison. A nil
// collector is valid and collects nothing.
type MetricsCollector struct {
	// TraceCapacity, when positive, enables span tracing with a ring of
	// this many spans per run.
	TraceCapacity int

	mu    sync.Mutex
	snaps []*paratreet.MetricsSnapshot

	// live is the registry of the most recently started run, for the
	// -http introspection endpoints to snapshot mid-run.
	live atomic.Pointer[paratreet.MetricsRegistry]
}

// StartRun returns a fresh registry for one simulation run and makes it
// the collector's live registry (nil when the collector is nil, which
// disables collection). External drivers wiring their own Simulation use
// it to get the -http introspection behavior of the experiment runs.
func (c *MetricsCollector) StartRun() *paratreet.MetricsRegistry {
	if c == nil {
		return nil
	}
	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: c.TraceCapacity})
	c.live.Store(reg)
	return reg
}

// Live returns the registry of the most recently started run (nil before
// the first run or on a nil collector). It is safe to snapshot
// concurrently with the run it observes.
func (c *MetricsCollector) Live() *paratreet.MetricsRegistry {
	if c == nil {
		return nil
	}
	return c.live.Load()
}

// collect stores one labeled snapshot; no-op on nil collector/snapshot.
func (c *MetricsCollector) collect(label string, snap *paratreet.MetricsSnapshot) {
	if c == nil || snap == nil {
		return
	}
	snap.Label = label
	c.mu.Lock()
	c.snaps = append(c.snaps, snap)
	c.mu.Unlock()
}

// Snapshots returns the collected snapshots in collection order.
func (c *MetricsCollector) Snapshots() []*paratreet.MetricsSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*paratreet.MetricsSnapshot(nil), c.snaps...)
}

// octree is the experiments' standard machine: procs processes of wpp
// workers building an octree over the Morton curve with 16-particle
// buckets.
func octree(procs, wpp int) paratreet.Config {
	return paratreet.Config{
		Procs: procs, WorkersPerProc: wpp,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
	}
}

// linked is the standard machine joined by the modelled interconnect:
// 20 µs per message plus 2 ns per byte.
func linked(procs, wpp int) paratreet.Config {
	cfg := octree(procs, wpp)
	cfg.Latency, cfg.PerByte = 20*time.Microsecond, 2*time.Nanosecond
	return cfg
}

// config completes cfg for one run of opts: its faults, and a fresh
// registry when opts collects metrics.
func (o Options) config(cfg paratreet.Config) paratreet.Config {
	cfg.Faults = o.Faults
	cfg.Metrics = o.Metrics.StartRun()
	return cfg
}

// newSim builds one run's simulation from cfg as completed by opts.
func newSim[D any](opts Options, cfg paratreet.Config, acc paratreet.Accumulator[D], codec paratreet.DataCodec[D], ps []particle.Particle) (*paratreet.Simulation[D], error) {
	return paratreet.NewSimulation(opts.config(cfg), acc, codec, ps)
}

// measured is what one measured run reports. Times are means per
// measured iteration; counters and phase totals cover all of them.
type measured struct {
	// virtual is the makespan the iteration would have if every simulated
	// worker owned a physical core (rt.Machine.MaxBusy). On hosts with
	// fewer cores than workers, wall time cannot exhibit parallel
	// speedup, so scaling curves use virtual time.
	virtual, wall time.Duration
	stats         paratreet.StatsSnapshot
	phases        [paratreet.NumPhases]time.Duration
	// broadcastBytes is the last iteration's top-share broadcast volume.
	broadcastBytes int
}

// measure is the measured run behind every experiment: it builds the
// simulation (newSim), runs warmup iterations, resets the counters, runs
// opts.Iters measured iterations, collects the metrics snapshot under
// label, reads the counters, and closes the simulation.
func measure[D any](opts Options, label string, warmup int, cfg paratreet.Config, acc paratreet.Accumulator[D], codec paratreet.DataCodec[D], ps []particle.Particle, driver paratreet.Driver[D]) (measured, error) {
	sim, err := newSim(opts, cfg, acc, codec, ps)
	if err != nil {
		return measured{}, err
	}
	defer sim.Close()
	if err := sim.Run(warmup, driver); err != nil {
		return measured{}, err
	}
	sim.ResetStats()
	start := time.Now()
	if err := sim.Run(opts.Iters, driver); err != nil {
		return measured{}, err
	}
	iters := time.Duration(opts.Iters)
	m := measured{
		wall:           time.Since(start) / iters,
		virtual:        sim.Machine().MaxBusy() / iters,
		stats:          sim.Stats(),
		phases:         sim.PhaseTotals(),
		broadcastBytes: sim.World().BroadcastBytes,
	}
	opts.Metrics.collect(label, sim.MetricsSnapshot())
	return m, nil
}
