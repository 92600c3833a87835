// Package experiments regenerates every table and figure of the paper's
// evaluation (§III, §IV) at laptop scale: each Run* function executes the
// corresponding experiment on the simulated machine and returns rows whose
// *shape* — who wins, by what factor, where scaling breaks — mirrors the
// published result. The cmd/paratreet-bench binary and the repository's
// testing.B benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paratreet"
	"paratreet/internal/baseline/changa"
	"paratreet/internal/baseline/gadget"
	"paratreet/internal/gravity"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
	"paratreet/internal/vec"
)

// Options scales an experiment.
type Options struct {
	// N is the particle count.
	N int
	// Iters is the number of measured iterations (after one warmup).
	Iters int
	// Workers sweeps total worker (core) counts.
	Workers []int
	// WorkersPerProc fixes the process granularity (the paper uses 24-48
	// cores per process; scaled down here).
	WorkersPerProc int
	// Seed makes datasets reproducible.
	Seed int64
	// Metrics, when non-nil, attaches a fresh observability registry to
	// every simulation the experiment runs and collects one labeled
	// snapshot per run (e.g. "fig3/WaitFree/w4"). Nil disables collection.
	Metrics *MetricsCollector
	// Faults, when non-nil, injects deterministic delivery faults (drops,
	// duplicates, jitter, pauses) into every simulation the experiment
	// runs; results must not change, only timings and retry counters.
	Faults *paratreet.FaultConfig
}

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

// registry returns a fresh registry for one simulation run (nil when the
// collector is nil, which disables collection).
func (c *MetricsCollector) registry() *paratreet.MetricsRegistry {
	if c == nil {
		return nil
	}
	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: c.TraceCapacity})
	c.live.Store(reg)
	return reg
}

// StartRun returns a fresh registry for one simulation run and makes it
// the collector's live registry. The experiment runners call this
// internally; external drivers wiring their own Simulation use it to get
// the same -http introspection behavior.
func (c *MetricsCollector) StartRun() *paratreet.MetricsRegistry { return c.registry() }

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

// Defaults returns the standard laptop-scale options.
func Defaults() Options {
	return Options{N: 40000, Iters: 3, Workers: []int{1, 2, 4, 8}, WorkersPerProc: 2, Seed: 42}
}

// Quick returns a fast smoke-test scale.
func Quick() Options {
	return Options{N: 6000, Iters: 2, Workers: []int{1, 4}, WorkersPerProc: 2, Seed: 42}
}

func (o Options) procsFor(workers int) (procs, wpp int) {
	wpp = o.WorkersPerProc
	if wpp <= 0 {
		wpp = 2
	}
	if workers < wpp {
		return 1, workers
	}
	return workers / wpp, wpp
}

// Row is one (x, series…) measurement of a sweep.
type Row struct {
	X      int
	Values map[string]float64
}

// Result is a labelled set of rows plus free-form notes.
type Result struct {
	Title   string
	XLabel  string
	Series  []string
	Rows    []Row
	Notes   []string
	Elapsed time.Duration
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", r.Title)
	fmt.Fprintf(&b, "%-12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %16s", s)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12d", row.X)
		for _, s := range r.Series {
			v, ok := row.Values[s]
			if !ok {
				fmt.Fprintf(&b, " %16s", "-")
				continue
			}
			fmt.Fprintf(&b, " %16.6g", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "elapsed: %v\n", r.Elapsed.Round(time.Millisecond))
	return b.String()
}

// gravityDriver launches the standard Barnes-Hut traversal, resetting
// accelerations first.
func gravityDriver(par gravity.Params) paratreet.Driver[gravity.CentroidData] {
	return paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
				particle.ResetAcc(b.Particles)
			})
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(par)
			})
		},
	}
}

// timeIterations runs one warmup plus iters measured iterations and
// returns the mean virtual iteration time (see rt.Machine.MaxBusy: the
// makespan the run would have if every simulated worker owned a physical
// core; on hosts with fewer cores than workers, wall time cannot exhibit
// parallel speedup, so scaling curves use virtual time) together with the
// mean wall time.
func timeIterations[D any](sim *paratreet.Simulation[D], driver paratreet.Driver[D], iters int) (time.Duration, error) {
	v, _, err := timeIterations2(sim, driver, iters)
	return v, err
}

func timeIterations2[D any](sim *paratreet.Simulation[D], driver paratreet.Driver[D], iters int) (virtual, wall time.Duration, err error) {
	if err := sim.Run(1, driver); err != nil { // warmup
		return 0, 0, err
	}
	sim.ResetStats()
	start := time.Now()
	if err := sim.Run(iters, driver); err != nil {
		return 0, 0, err
	}
	wall = time.Since(start) / time.Duration(iters)
	virtual = sim.Machine().MaxBusy() / time.Duration(iters)
	return virtual, wall, nil
}

// RunFig3 reproduces Fig 3: Barnes-Hut iteration under the three
// software-cache models — WaitFree (the paper's), Sequential (the
// per-thread cache of §II-B2), and XWrite (exclusive-write) — on a
// clustered dataset, swept over total worker counts. Alongside the
// virtual makespan, the causal counters behind the paper's curves are
// reported: the per-thread model's duplicated fetch volume and the
// exclusive-write model's lock waiting. At the paper's 1536-24576 cores
// those mechanisms dominate wall time; at laptop scale they are visible
// primarily in the counters.
func RunFig3(opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{
		Title:  "Fig 3: cache models, Barnes-Hut on clustered particles (mean iteration seconds)",
		XLabel: "workers",
		Series: []string{"WaitFree", "Sequential", "XWrite", "Seq-req/WF-req", "XW-lockms"},
	}
	policies := []struct {
		name   string
		policy paratreet.CachePolicy
	}{
		{"WaitFree", paratreet.CacheWaitFree},
		{"Sequential", paratreet.CachePerThread},
		{"XWrite", paratreet.CacheXWrite},
	}
	box := vec.NewBox(vec.V(0, 0, 0), vec.V(1, 1, 1))
	par := gravity.Params{G: 1, Theta: 0.5, Soft: 1e-4}
	for _, w := range opts.Workers {
		procs, wpp := opts.procsFor(w)
		row := Row{X: w, Values: map[string]float64{}}
		requests := map[string]float64{}
		for _, pc := range policies {
			ps := particle.NewClustered(opts.N, opts.Seed, box, 8)
			sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
				Procs: procs, WorkersPerProc: wpp, Faults: opts.Faults,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
				BucketSize: 16, CachePolicy: pc.policy, FetchDepth: 2,
				Latency: 20 * time.Microsecond, PerByte: 2 * time.Nanosecond,
				Metrics: opts.Metrics.registry(),
			}, gravity.Accumulator{}, gravity.Codec{}, ps)
			if err != nil {
				return nil, err
			}
			mean, err := timeIterations(sim, gravityDriver(par), opts.Iters)
			if err != nil {
				sim.Close()
				return nil, err
			}
			opts.Metrics.collect(fmt.Sprintf("fig3/%s/w%d", pc.name, w), sim.MetricsSnapshot())
			stats := sim.Stats()
			requests[pc.name] = float64(stats.NodeRequests)
			if pc.name == "XWrite" {
				row.Values["XW-lockms"] = float64(stats.LockWaitNanos) / 1e6 / float64(opts.Iters)
			}
			sim.Close()
			row.Values[pc.name] = mean.Seconds()
		}
		if requests["WaitFree"] > 0 {
			row.Values["Seq-req/WF-req"] = requests["Sequential"] / requests["WaitFree"]
		} else {
			row.Values["Seq-req/WF-req"] = 1
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: XWrite degrades first (lock contention), then Sequential (per-thread cache communication volume); WaitFree scales best",
		"Seq-req/WF-req: the per-thread cache's duplicated fetches; XW-lockms: time spent waiting for the insert lock",
		"times are virtual makespans (max per-worker busy time) - see EXPERIMENTS.md")
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunFig9 reproduces Fig 9: the utilization profile of the parallel
// gravity traversal, reported as the share of total worker time spent in
// each runtime phase.
func RunFig9(opts Options) (*Result, error) {
	start := time.Now()
	w := opts.Workers[len(opts.Workers)-1]
	procs, wpp := opts.procsFor(w)
	ps := particle.NewUniform(opts.N, opts.Seed, vec.UnitBox())
	sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
		Procs: procs, WorkersPerProc: wpp, Faults: opts.Faults,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
		BucketSize: 16,
		Latency:    20 * time.Microsecond, PerByte: 2 * time.Nanosecond,
		Metrics: opts.Metrics.registry(),
	}, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	if _, err := timeIterations(sim, gravityDriver(par), opts.Iters); err != nil {
		return nil, err
	}
	opts.Metrics.collect(fmt.Sprintf("fig9/w%d", w), sim.MetricsSnapshot())
	phases := sim.PhaseTotals()
	var total time.Duration
	for _, d := range phases {
		total += d
	}
	res := &Result{
		Title:  fmt.Sprintf("Fig 9: utilization profile, gravity on %d workers (%% of accounted worker time)", w),
		XLabel: "phase#",
		Series: []string{"percent"},
	}
	for ph := paratreet.Phase(0); ph < paratreet.NumPhases; ph++ {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(phases[ph]) / float64(total)
		}
		res.Rows = append(res.Rows, Row{X: int(ph), Values: map[string]float64{"percent": pct}})
		res.Notes = append(res.Notes, fmt.Sprintf("phase %d = %s", int(ph), ph))
	}
	res.Notes = append(res.Notes,
		"paper: bulk of time in node-local traversals; remainder in cache requests, insertions, resumptions")
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunFig10 reproduces Fig 10: average iteration time for monopole
// Barnes-Hut on a uniform volume — ParaTreeT vs the ChaNGa profile vs
// ParaTreeT restricted to the standard per-bucket DFS ("BasicTrav").
func RunFig10(opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{
		Title:  "Fig 10: gravity iteration time, uniform volume (seconds)",
		XLabel: "workers",
		Series: []string{"ParaTreeT", "BasicTrav", "ChaNGa"},
	}
	par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-4}
	for _, w := range opts.Workers {
		procs, wpp := opts.procsFor(w)
		row := Row{X: w, Values: map[string]float64{}}

		run := func(cfg paratreet.Config, driver paratreet.Driver[gravity.CentroidData]) (float64, error) {
			ps := particle.NewUniform(opts.N, opts.Seed, vec.UnitBox())
			sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
			if err != nil {
				return 0, err
			}
			defer sim.Close()
			mean, err := timeIterations(sim, driver, opts.Iters)
			return mean.Seconds(), err
		}

		base := paratreet.Config{
			Procs: procs, WorkersPerProc: wpp, Faults: opts.Faults,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
			Latency: 20 * time.Microsecond, PerByte: 2 * time.Nanosecond,
		}
		v, err := run(base, gravityDriver(par))
		if err != nil {
			return nil, err
		}
		row.Values["ParaTreeT"] = v

		basic := base
		basic.Style = paratreet.StylePerBucket
		v, err = run(basic, gravityDriver(par))
		if err != nil {
			return nil, err
		}
		row.Values["BasicTrav"] = v

		ch := changa.Config(procs, wpp, 16)
		ch.Latency, ch.PerByte = base.Latency, base.PerByte
		v, err = run(ch, changa.Driver(par))
		if err != nil {
			return nil, err
		}
		row.Values["ChaNGa"] = v

		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "paper: ParaTreeT 2-3x faster than ChaNGa across scales; BasicTrav between the two")
	res.Elapsed = time.Since(start)
	return res, nil
}

// knnParams are the SPH parameters of Fig 11 and the knn experiment.
var knnParams = sph.Params{K: 24, Gamma: 5.0 / 3.0, U: 1}

// newKNNSim builds the simulation of ParaTreeT's arm of Fig 11: a
// cosmological volume on an octree with SFC decomposition and the
// modelled interconnect.
func newKNNSim(opts Options, procs, wpp int, reg *paratreet.MetricsRegistry) (*paratreet.Simulation[knn.Data], error) {
	ps := particle.NewCosmological(opts.N, opts.Seed, vec.UnitBox())
	return paratreet.NewSimulation[knn.Data](paratreet.Config{
		Procs: procs, WorkersPerProc: wpp, Faults: opts.Faults,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		Latency: 20 * time.Microsecond, PerByte: 2 * time.Nanosecond,
		Metrics: reg,
	}, knn.Accumulator{}, knn.Codec{}, ps)
}

// RunFig11 reproduces Fig 11: SPH density iteration time — ParaTreeT's
// k-nearest-neighbors algorithm vs the Gadget-2-style smoothing-length
// convergence by repeated ball searches — on a cosmological volume.
func RunFig11(opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{
		Title:  "Fig 11: SPH density iteration time, cosmological volume (seconds)",
		XLabel: "workers",
		Series: []string{"ParaTreeT", "Gadget2", "PTT-msgs", "G2-msgs", "G2-rounds"},
	}
	for _, w := range opts.Workers {
		procs, wpp := opts.procsFor(w)
		row := Row{X: w, Values: map[string]float64{}}

		// ParaTreeT: one up-and-down kNN traversal.
		sim, err := newKNNSim(opts, procs, wpp, nil)
		if err != nil {
			return nil, err
		}
		mean, err := timeIterations(sim, sph.Driver(knnParams), opts.Iters)
		if err != nil {
			sim.Close()
			return nil, err
		}
		row.Values["ParaTreeT"] = mean.Seconds()
		row.Values["PTT-msgs"] = float64(sim.Stats().MessagesSent) / float64(opts.Iters)
		sim.Close()

		// Gadget-2 profile: one process per core, ball iteration. Each
		// convergence round is a fully synchronized tree traversal — the
		// repeated rounds and their message volume are what make this
		// algorithm lose badly at scale (latency is visible through the
		// message counters, not the virtual makespan).
		ps2 := particle.NewCosmological(opts.N, opts.Seed, vec.UnitBox())
		gcfg := gadget.Config(w, 16)
		gcfg.Latency, gcfg.PerByte = 20*time.Microsecond, 2*time.Nanosecond
		gsim, err := paratreet.NewSimulation[knn.Data](gcfg, knn.Accumulator{}, knn.Codec{}, ps2)
		if err != nil {
			return nil, err
		}
		var rounds int
		gdriver := paratreet.DriverFuncs[knn.Data]{
			TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				r := gadget.DensityIteration(s, knnParams, 2, 30, 0.05)
				rounds = r.Rounds
			},
		}
		mean, err = timeIterations(gsim, gdriver, opts.Iters)
		if err != nil {
			gsim.Close()
			return nil, err
		}
		row.Values["Gadget2"] = mean.Seconds()
		row.Values["G2-msgs"] = float64(gsim.Stats().MessagesSent) / float64(opts.Iters)
		row.Values["G2-rounds"] = float64(rounds)
		gsim.Close()

		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: ParaTreeT ~10x faster at scale; the kNN algorithm avoids repeated synchronized ball-search rounds",
		"G2-rounds synchronized traversal rounds per iteration and the message columns carry the latency cost virtual time omits")
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunKNN runs the ParaTreeT arm of Fig 11 — one up-and-down
// k-nearest-neighbors SPH density traversal on a cosmological volume —
// at the sweep's largest worker count. It is the standard workload for
// timeline capture (-trace/-trace-out): the remote-neighbor traffic of
// the clustered dataset exercises every event kind the tracer records
// (tasks, fetch/fill flows, park/resume, message arrows).
func RunKNN(opts Options) (*Result, error) {
	start := time.Now()
	w := opts.Workers[len(opts.Workers)-1]
	procs, wpp := opts.procsFor(w)
	sim, err := newKNNSim(opts, procs, wpp, opts.Metrics.registry())
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	virtual, wall, err := timeIterations2(sim, sph.Driver(knnParams), opts.Iters)
	if err != nil {
		return nil, err
	}
	opts.Metrics.collect(fmt.Sprintf("knn/w%d", w), sim.MetricsSnapshot())
	res := &Result{
		Title:  fmt.Sprintf("kNN SPH density, cosmological volume, %d workers", w),
		XLabel: "workers",
		Series: []string{"virtual-s", "wall-s", "msgs"},
		Rows: []Row{{X: w, Values: map[string]float64{
			"virtual-s": virtual.Seconds(),
			"wall-s":    wall.Seconds(),
			"msgs":      float64(sim.Stats().MessagesSent) / float64(opts.Iters),
		}}},
	}
	res.Notes = append(res.Notes,
		"single-cell run intended for timeline capture; pair with -trace/-trace-out and paratreet-trace")
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunTable1 prints the machine characteristics table: the paper's
// supercomputers for reference and the simulated machine actually used.
func RunTable1() string {
	var b strings.Builder
	b.WriteString("# Table I: machine characteristics\n")
	b.WriteString("Paper systems:\n")
	b.WriteString("  Summit     42 cores/node  POWER9     3.1 GHz  UCX\n")
	b.WriteString("  Stampede2  48 cores/node  Skylake    2.1 GHz  MPI\n")
	b.WriteString("  Bridges2  128 cores/node  EPYC 7742  2.25GHz  Infiniband\n")
	fmt.Fprintf(&b, "This reproduction (simulated distributed machine in one Go process):\n")
	fmt.Fprintf(&b, "  host: %s/%s, %d hardware threads, %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	b.WriteString("  interconnect model: configurable per-message latency + per-byte cost\n")
	b.WriteString("  cache model for Table II: SKX geometry (32KB L1D / 1MB L2 / 33MB shared L3)\n")
	return b.String()
}
