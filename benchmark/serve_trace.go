package main

import (
	"fmt"
	"math/rand"
	"time"

	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
)

// serveTraceCap is the traced service's span ring, the size the daemon
// picks when asked for a trace file.
const serveTraceCap = 65536

// The traced run splits its rounds between a plain service (the overhead
// baseline) and the traced one; each gets a warm-up round of its own.
const (
	servePlainRounds  = 2
	serveTracedRounds = 3
)

// traceServe is serve_mixed's traced run: rounds on a plain service for
// the overhead baseline, then rounds on a service whose registry traces
// spans and whose every response is parsed for its timing block, then the
// probes.
func traceServe(o options, r *result, in *serveInputs, rng *rand.Rand, prepare time.Duration) error {
	budget := time.Duration(o.seconds * float64(time.Second))
	round := roundLength(budget, servePlainRounds+serveTracedRounds+2)

	plain, err := newService(particle.Clone(in.states[0]), in.pool, 0)
	if err != nil {
		return err
	}
	plainRounds, err := runRounds(r, "plain-", plain, in, rng, round, servePlainRounds, false)
	plain.Close()
	if err != nil {
		return err
	}

	svc, err := newService(particle.Clone(in.states[0]), in.pool, serveTraceCap)
	if err != nil {
		return err
	}
	defer svc.Close()
	r.set("core.scratch_build_ms", ms(svc.firstBuild))
	gc := readGC()
	before := svc.eng.Snapshot()
	rounds, err := runRounds(r, "", svc, in, rng, round, serveTracedRounds, true)
	if err != nil {
		return err
	}
	after := svc.eng.Snapshot()

	// Per-request components of the measured steady phases, and their
	// spans: request = gen.late + serve.handler, and the handler's queue
	// wait and wave run back to back from its start.
	var lat, late, edge, queue, wave, other []float64
	var bytes float64
	r.spans = newSpanLog()
	for _, p := range rounds {
		for i := range p.steady.ok {
			q := &p.steady.ok[i]
			unit := len(lat)
			lat = append(lat, ms(q.done.Sub(q.due)))
			late = append(late, us(q.start.Sub(q.due)))
			edge = append(edge, us(q.done.Sub(q.start))-q.totalUs)
			queue = append(queue, q.queueUs)
			wave = append(wave, q.waveUs)
			other = append(other, q.totalUs-q.queueUs-q.waveUs)
			bytes += float64(q.bytes)
			root := r.spans.add("request", q.due, q.done, -1, unit)
			r.spans.add("gen.late", q.due, q.start, root, unit)
			h := r.spans.add("serve.handler", q.start, q.done, root, unit)
			qEnd := q.start.Add(time.Duration(q.queueUs * 1e3))
			r.spans.add("serve.queue_wait", q.start, qEnd, h, unit)
			r.spans.add("serve.wave", qEnd, qEnd.Add(time.Duration(q.waveUs*1e3)), h, unit)
		}
	}
	if err := r.spans.checkTiling(); err != nil {
		return err
	}
	tracedP50 := overRounds(rounds, steadyP50)
	r.set("bench.traced_step_ms_p50", tracedP50)
	r.set("serve.edge_us_p50", median(edge))
	r.set("serve.queue_wait_us_p50", median(queue))
	r.set("serve.wave_us_p50", median(wave))
	r.set("serve.batch_size_mean.steady", overRounds(rounds, func(p *phaseResults) float64 {
		return ratio(float64(p.steady.answered), float64(p.steadyWaves))
	}))
	r.set("serve.batch_size_mean.saturate", overRounds(rounds, func(p *phaseResults) float64 {
		return ratio(float64(p.saturate.answered), float64(p.satWaves))
	}))
	r.set("serve.query_ms_p99", quantile(lat, 0.99))
	// The median over rounds of each refresh phase's mean latency, so one
	// host stall spoils one round, not the figure.
	r.set("serve.query_ms_mean_under_refresh", overRounds(rounds, func(p *phaseResults) float64 {
		return mean(latenciesMs(p.refresh.ok))
	}))
	refresh := refreshMs(rounds)
	r.set("serve.refresh_ms_max", maxOf(refresh))
	r.set("core.build_ms", median(refresh))

	var attempted, rejected int
	var patches patchCounts
	var allocObjs uint64
	var lateMs float64
	for _, p := range rounds {
		for _, t := range []*phaseTally{&p.steady, &p.refresh, &p.saturate} {
			attempted += t.attempted
			rejected += t.rejected
		}
		patches.merge(p.refresher.patchCounts)
		allocObjs += p.steadyAllocObjs
		lateMs = max(lateMs, genLateMs(p.steady.ok), genLateMs(p.refresh.ok))
	}
	r.set("serve.rejected_share", ratio(float64(rejected), float64(attempted)))
	r.set("serve.gen_late_ms_max", lateMs)
	r.set("serve.response_kb_per_query", bytes/float64(len(lat))/1024)
	patches.report(r)
	plainP50 := overRounds(plainRounds, steadyP50)
	r.set("metrics.trace_overhead_share", (tracedP50-plainP50)/plainP50)
	r.set("bench.prepare_s", prepare.Seconds())
	total, failed := r.totals()
	r.set("bench.failed_share", ratio(float64(failed), float64(total)))

	// Registry counters over the traced service's rounds (warm-up round
	// included), per answered query.
	served := float64(after.Counter(metrics.CServeRequests) - before.Counter(metrics.CServeRequests))
	perQuery := func(name string) float64 {
		return ratio(float64(after.Counter(name)-before.Counter(name)), served)
	}
	r.set("rt.messages_per_iter", perQuery("rt.messages_sent"))
	r.set("rt.mb_per_iter", perQuery("rt.bytes_sent")/(1<<20))
	r.set("rt.tasks_per_iter", perQuery("rt.tasks_run"))
	r.set("cache.requests_per_iter", perQuery("rt.node_requests"))
	r.set("cache.nodes_shipped_per_iter", perQuery("rt.nodes_shipped"))
	r.set("traverse.visits_per_iter", perQuery(metrics.CTraverseVisits))
	r.set("traverse.opens_per_iter", perQuery(metrics.CTraverseOpens))
	r.set("traverse.prunes_per_iter", perQuery(metrics.CTraversePrunes))
	r.set("traverse.parks_per_iter", perQuery(metrics.CTraverseParks))
	hits, misses := perQuery(metrics.CCacheHits), perQuery(metrics.CCacheMisses)
	r.set("cache.hit_ratio", ratio(hits, hits+misses))
	fetchRTT(r, after)
	gcAfter := readGC()
	r.set("runtime.allocs_per_iter", float64(allocObjs)/float64(len(lat)))
	r.set("runtime.gc_cycles_per_iter", ratio(float64(gcAfter.cycles-gc.cycles), served))
	r.set("runtime.gc_pause_ms_total", float64(gcAfter.pauseNs-gc.pauseNs)/1e6)
	_, sys := memMB()
	r.set("runtime.mem_sys_mb", sys)

	// A request's parts are skewed and trade off against each other, so
	// their medians do not add up to the median latency (they miss it by a
	// quarter). The table therefore describes the median request itself:
	// each part averaged over the requests whose latency lies between the
	// 45th and the 55th percentile.
	lo, hi := quantile(lat, 0.45), quantile(lat, 0.55)
	var band []int
	for i, l := range lat {
		if l >= lo && l <= hi {
			band = append(band, i)
		}
	}
	inBand := func(xs []float64) float64 {
		var sum float64
		for _, i := range band {
			sum += xs[i]
		}
		return sum / float64(len(band))
	}
	share := explain(r, wServe+" steady, the middle tenth of requests", "us", median(lat)*1e3, []explainRow{
		{"gen.late", inBand(late)},
		{"serve.edge", inBand(edge)},
		{"serve.queue_wait", inBand(queue)},
		{"serve.wave", inBand(wave)},
		{"serve.batcher_other", inBand(other)},
	})
	r.set("bench.explained_share", share)
	r.notef("%d plain and %d traced measured rounds, one warm-up round before each; %d traced steady responses", len(plainRounds), len(rounds), len(lat))

	probeEngine(r, svc.eng, in.pool)
	if err := probeBatcher(r); err != nil {
		return err
	}
	probeRoundTrip(r)
	return nil
}

// probeEngine times Engine.RunBatch directly: one query per wave (what a
// lone request costs) and 32 per wave (the amortised cost saturate sees).
func probeEngine(r *result, eng *serve.Engine, pool []poolEntry) {
	perQuery := func(batch, waves int) float64 {
		qs := make([]serve.Query, batch)
		var samples []float64
		for w := 0; w < waves; w++ {
			for i := range qs {
				qs[i] = pool[(w*batch+i)%len(pool)].query
			}
			start := time.Now()
			if _, err := eng.RunBatch(qs); err != nil {
				panic(err) // every pool query was validated when the pool was built and served
			}
			samples = append(samples, us(time.Since(start))/float64(batch))
		}
		return median(samples)
	}
	r.set("serve.engine_us_per_query.b1", perQuery(1, 512))
	r.set("serve.engine_us_per_query.b32", perQuery(32, 64))
}

// probeBatcher times a Submit round trip through a batcher whose executor
// does nothing and whose batches flush at once: the pump, the wave
// goroutine hand-off and the wake-up, without a flush timer or an engine.
func probeBatcher(r *result) error {
	b := serve.NewBatcher[int, int](serve.BatchConfig{MaxBatch: 1}, func(reqs []int) ([]int, error) { return reqs, nil })
	defer b.Drain()
	const submits = 5000
	samples := make([]float64, submits)
	for i := range samples {
		start := time.Now()
		if _, _, err := b.Submit(i, time.Time{}); err != nil {
			return fmt.Errorf("batcher probe: %w", err)
		}
		samples[i] = us(time.Since(start))
	}
	r.set("serve.batcher_overhead_us", median(samples))
	return nil
}
