package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"paratreet"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
)

// Shared harness of the three iteration workloads (gravity_plummer,
// knn_cosmo, rebuild_drift): set-up timing, the measured step loop, the
// driver-callback spans that tile a step, and the counter deltas the
// per-layer metrics are derived from.

// setupReps is how many times a run sets up; setup_s is the median, so
// one slow construction does not decide it.
const setupReps = 5

// measureSetup runs setup setupReps times, each on its own copy of base
// (made before the clock starts), closing all but the last instance, and
// returns the median wall time and the last instance. What setup covers is
// the workload's definition of set-up: construction, the first build and
// the warm-up — never dataset generation.
func measureSetup[T interface{ Close() }](base []particle.Particle, setup func(ps []particle.Particle) (T, error)) (float64, T, error) {
	var secs []float64
	var last T
	for i := 0; i < setupReps; i++ {
		ps := particle.Clone(base)
		start := time.Now()
		inst, err := setup(ps)
		if err != nil {
			return 0, last, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setupReps-1 {
			inst.Close()
			// Collect the closed instance now, so the next one does not
			// start on a heap whose size depends on when the collector
			// happens to get to it.
			runtime.GC()
		} else {
			last = inst
		}
	}
	return median(secs), last, nil
}

// stepTimes are the timestamps the driver callbacks take during one
// Run(1): Run entry -> TraversalFn entry -> PostTraversalFn entry -> its
// exit -> Run return. Consecutive pairs are the core.build,
// traverse.wall, app.post and core.gather spans; they tile the step
// exactly. A workload that moves particles itself before building
// (rebuild_drift) sets drifted, and the step then opens with an app.drift
// span.
type stepTimes struct {
	start, drifted, trav, post, postEnd, end time.Time
}

func (st stepTimes) buildStart() time.Time {
	if st.drifted.IsZero() {
		return st.start
	}
	return st.drifted
}

// timedRun executes one Run(1) with launch and post as the driver's
// bodies and returns the callback timestamps.
func timedRun[D any](sim *paratreet.Simulation[D], launch, post func(s *paratreet.Simulation[D], iter int)) (stepTimes, error) {
	var st stepTimes
	drv := paratreet.DriverFuncs[D]{
		TraversalFn: func(s *paratreet.Simulation[D], iter int) {
			st.trav = time.Now()
			launch(s, iter)
		},
		PostTraversalFn: func(s *paratreet.Simulation[D], iter int) {
			st.post = time.Now()
			post(s, iter)
			st.postEnd = time.Now()
		},
	}
	st.start = time.Now()
	err := sim.Run(1, drv)
	st.end = time.Now()
	return st, err
}

// simCounters is a reading of every cumulative counter the per-layer
// metrics diff across a step.
type simCounters struct {
	n      [numCounters]int64
	phases [paratreet.NumPhases]time.Duration
}

// Indices into simCounters.n: the machine's Stats, then the registry
// counters (zero when Config.Metrics is nil), in regCounterNames' order.
const (
	cMessages = iota
	cBytes
	cRequests
	cDuplicates
	cShipped
	cTasks
	cLockWaitNs
	cVisits
	cOpens
	cPrunes
	cParks
	cHits
	cMisses
	numCounters
)

var regCounterNames = [...]string{
	metrics.CTraverseVisits, metrics.CTraverseOpens, metrics.CTraversePrunes,
	metrics.CTraverseParks, metrics.CCacheHits, metrics.CCacheMisses,
}

func readCounters[D any](sim *paratreet.Simulation[D], reg *paratreet.MetricsRegistry) simCounters {
	s := sim.Stats()
	c := simCounters{phases: sim.PhaseTotals()}
	copy(c.n[:], []int64{s.MessagesSent, s.BytesSent, s.NodeRequests, s.DuplicateRequests, s.NodesShipped, s.TasksRun, s.LockWaitNanos})
	for i, name := range regCounterNames {
		c.n[cVisits+i] = reg.Counter(name).Value()
	}
	return c
}

// addDelta accumulates (after - before) into c.
func (c *simCounters) addDelta(before, after simCounters) {
	for i := range c.n {
		c.n[i] += after.n[i] - before.n[i]
	}
	for i := range c.phases {
		c.phases[i] += after.phases[i] - before.phases[i]
	}
}

// pumpNs is the worker time spent inside traversal pumps, which the
// runtime books to two phases: local traversal, and resume for frames
// continued after a cache fill.
func (c *simCounters) pumpNs() float64 {
	return float64((c.phases[paratreet.PhaseLocalTraversal] + c.phases[paratreet.PhaseResume]).Nanoseconds())
}

// stepLoop accumulates the timed steps of one iteration workload.
type stepLoop struct {
	n int // particles advanced per step

	total, build, traverse, post, gather, drift []float64 // ms per timed step

	wall       time.Duration // sum of timed step wall
	allocBytes uint64
	allocObjs  uint64
	counters   simCounters
	// perProcLocal sums each process's local-traversal worker time over
	// timed steps, for traverse.imbalance.
	perProcLocal []time.Duration

	attempted, failed int

	ac    *allocCounter
	spans *spanLog
}

func newStepLoop(n int, spans *spanLog) *stepLoop {
	return &stepLoop{n: n, ac: newAllocCounter(), spans: spans}
}

// record adds one timed step from its timestamps. treeTop and leafShare
// are the build's own breakdown (LastBuildTime and LeafShareTime, which
// run back to back from the start of the build); they become children of
// the step's core.build span.
func (l *stepLoop) record(st stepTimes, treeTop, leafShare time.Duration) {
	built := st.buildStart()
	l.total = append(l.total, ms(st.end.Sub(st.start)))
	l.drift = append(l.drift, ms(built.Sub(st.start)))
	l.build = append(l.build, ms(st.trav.Sub(built)))
	l.traverse = append(l.traverse, ms(st.post.Sub(st.trav)))
	l.post = append(l.post, ms(st.postEnd.Sub(st.post)))
	l.gather = append(l.gather, ms(st.end.Sub(st.postEnd)))
	l.wall += st.end.Sub(st.start)
	if l.spans == nil {
		return
	}
	unit := len(l.total) - 1
	root := l.spans.add("step", st.start, st.end, -1, unit)
	if !st.drifted.IsZero() {
		l.spans.add("app.drift", st.start, st.drifted, root, unit)
	}
	build := l.spans.add("core.build", built, st.trav, root, unit)
	l.spans.add("core.decomp_tree_top", built, built.Add(treeTop), build, unit)
	l.spans.add("core.leaf_share", built.Add(treeTop), built.Add(treeTop+leafShare), build, unit)
	l.spans.add("traverse.wall", st.trav, st.post, root, unit)
	l.spans.add("app.post", st.post, st.postEnd, root, unit)
	l.spans.add("core.gather", st.postEnd, st.end, root, unit)
}

func (l *stepLoop) steps() int { return len(l.total) }

// memorySteps is how many untimed steps follow the timed loop, each
// followed by a live-heap reading. What a simulation retains between steps
// depends on timing (how far the traversals' frame arenas grew: gravity's
// readings range over 15-22 MB within one run), so mem_live_mb is the
// median of several readings. They are taken after the timed loop because
// a reading forces collections, which must not pace the timed steps.
const memorySteps = 12

// endToEnd fills the end-to-end metrics every iteration workload shares.
// step runs one more untimed step of the workload, for the memory
// readings.
func (l *stepLoop) endToEnd(r *result, setupS float64, step func() error) error {
	if l.steps() == 0 {
		return fmt.Errorf("no timed step completed")
	}
	r.set("setup_s", setupS)
	r.set("step_ms_p50", median(l.total))
	r.set("step_ms_p90", quantile(l.total, 0.9))
	r.set("work_per_s", float64(l.n)*float64(l.steps())/l.wall.Seconds())
	r.set("alloc_kb_per_step", float64(l.allocBytes)/float64(l.steps())/1024)
	var liveMB []float64
	var sys float64
	for i := 0; i < memorySteps; i++ {
		if err := step(); err != nil {
			return err
		}
		var live float64
		live, sys = memMB()
		liveMB = append(liveMB, live)
	}
	r.set("mem_live_mb", median(liveMB))
	r.notef("live heap: median of %d readings %.1f; MemStats.Sys %.1f MB", len(liveMB), liveMB, sys)
	r.set("rebuild_ms_p50", median(l.build))
	r.notef("%d timed steps (%d beyond p90), %d attempted", l.steps(), l.steps()/10, l.attempted)
	return nil
}

// timedStep runs one timed step through fn, bracketed by the allocation and
// counter readings, and records it.
func timedStep[D any](l *stepLoop, sim *paratreet.Simulation[D], reg *paratreet.MetricsRegistry, fn func() (stepTimes, error)) error {
	before := readCounters(sim, reg)
	b0, o0 := l.ac.read()
	st, err := fn()
	b1, o1 := l.ac.read()
	if err != nil {
		return err
	}
	l.allocBytes += b1 - b0
	l.allocObjs += o1 - o0
	l.counters.addDelta(before, readCounters(sim, reg))
	l.record(st, sim.LastBuildTime(), sim.LeafShareTime())
	return nil
}

// traceCommon fills what the traced run of every iteration workload
// reports the same way: the step spans' medians, the counter deltas per
// timed step, the build breakdown, the tracing overhead against the plain
// stretch, and the explain table. gc is the GC state when the traced loop
// began.
func traceCommon[D any](r *result, sim *paratreet.Simulation[D], l, plain *stepLoop, gc gcState, prepare time.Duration) error {
	if l.steps() == 0 || plain.steps() == 0 {
		return fmt.Errorf("no timed step completed")
	}
	n := float64(l.steps())
	r.count("steps", l.attempted+plain.attempted, l.failed+plain.failed)
	r.set("bench.failed_share", ratio(float64(l.failed+plain.failed), float64(l.attempted+plain.attempted)))
	r.set("bench.prepare_s", prepare.Seconds())
	r.set("bench.traced_step_ms_p50", median(l.total))
	r.set("metrics.trace_overhead_share", (median(l.total)-median(plain.total))/median(plain.total))
	r.set("core.build_ms", median(l.build))
	r.set("traverse.wall_ms", median(l.traverse))
	r.set("app.post_ms", median(l.post))
	r.set("core.gather_ms", median(l.gather))
	r.set("app.drift_ms", median(l.drift))
	r.set("core.decomp_tree_top_ms", ms(sim.LastBuildTime()))
	r.set("core.leaf_share_ms", ms(sim.LeafShareTime()))
	r.set("core.split_buckets", float64(sim.SplitBuckets()))

	c := &l.counters
	perIter := func(i int) float64 { return float64(c.n[i]) / n }
	r.set("rt.messages_per_iter", perIter(cMessages))
	r.set("rt.mb_per_iter", perIter(cBytes)/(1<<20))
	r.set("rt.tasks_per_iter", perIter(cTasks))
	r.set("rt.lock_wait_ms_per_iter", perIter(cLockWaitNs)/1e6)
	r.set("cache.requests_per_iter", perIter(cRequests))
	r.set("cache.duplicate_requests_per_iter", perIter(cDuplicates))
	r.set("cache.nodes_shipped_per_iter", perIter(cShipped))
	r.set("traverse.visits_per_iter", perIter(cVisits))
	r.set("traverse.opens_per_iter", perIter(cOpens))
	r.set("traverse.prunes_per_iter", perIter(cPrunes))
	r.set("traverse.parks_per_iter", perIter(cParks))
	r.set("cache.hit_ratio", ratio(float64(c.n[cHits]), float64(c.n[cHits]+c.n[cMisses])))
	fetchRTT(r, sim.MetricsSnapshot())

	cpuMs := func(p paratreet.Phase) float64 { return ms(c.phases[p]) / n }
	r.set("rt.cpu_ms.idle", cpuMs(paratreet.PhaseIdle))
	r.set("rt.cpu_ms.other", cpuMs(paratreet.PhaseOther))
	r.set("cache.cpu_ms.request", cpuMs(paratreet.PhaseCacheRequest))
	r.set("cache.cpu_ms.insert", cpuMs(paratreet.PhaseCacheInsert))
	r.set("cache.cpu_ms.resume", cpuMs(paratreet.PhaseResume))
	r.set("traverse.cpu_ms.local", cpuMs(paratreet.PhaseLocalTraversal))

	var maxLocal, sumLocal time.Duration
	for _, d := range l.perProcLocal {
		sumLocal += d
		maxLocal = max(maxLocal, d)
	}
	if len(l.perProcLocal) > 0 {
		r.set("traverse.imbalance", ratio(float64(maxLocal), float64(sumLocal)/float64(len(l.perProcLocal))))
	}

	after := readGC()
	r.set("runtime.allocs_per_iter", float64(l.allocObjs)/n)
	r.set("runtime.gc_cycles_per_iter", float64(after.cycles-gc.cycles)/n)
	r.set("runtime.gc_pause_ms_total", float64(after.pauseNs-gc.pauseNs)/1e6)
	_, sys := memMB()
	r.set("runtime.mem_sys_mb", sys)

	if err := l.spans.checkTiling(); err != nil {
		return err
	}
	// The explain table: every span's median self time against the median
	// step.
	self := l.spans.selfTimes()
	delete(self, "step")
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]explainRow, 0, len(names))
	for _, name := range names {
		rows = append(rows, explainRow{name, median(self[name])})
	}
	r.set("bench.explained_share", explain(r, r.workload, "ms", median(l.total), rows))
	return nil
}

// fetchRTT fills the cache fetch round-trip quantiles from the registry's
// sketch (empty, hence 0, on a machine with one process).
func fetchRTT(r *result, snap *paratreet.MetricsSnapshot) {
	if snap == nil {
		return
	}
	sk := snap.Sketches[metrics.HCacheFetchRTT]
	r.set("cache.fetch_rtt_us_p50", float64(sk.P50)/1e3)
	r.set("cache.fetch_rtt_us_p99", float64(sk.P99)/1e3)
}
