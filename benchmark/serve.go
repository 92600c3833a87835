package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paratreet"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/vec"
)

// serve_mixed: the query service under an arrival schedule. Prebuilt JSON
// requests (kNN, range, probe) are delivered in-process to the server's
// handler — one goroutine per request, no sockets — in three phases:
// steady (open loop, read-only), refresh (open loop while the engine is
// refreshed between two particle states) and saturate (closed loop). It is
// the only workload that exercises the batcher, engine waves, the JSON
// edge and the telemetry plane.

const (
	serveN          = 50000
	servePool       = 4096
	serveVerifyGap  = 16  // pool slots 0, 16, 32, ... are decoded and checked against the oracle
	serveWarmup     = 200 // warm-up queries, part of set-up
	serveSteadyRate = 1500.0
	serveRefreshQPS = 1000.0
	serveCallers    = 32                     // closed-loop callers in saturate
	serveInflight   = 2048                   // open-loop cap; arrivals beyond it are dropped and count as failed
	serveDeadline   = 2 * time.Second        // a response later than this after its due time is a failure
	serveRefreshGap = 100 * time.Millisecond // pause between two Engine.Refresh calls
	serveRadius     = 0.0005                 // body radius, so probes have something to touch
	serveMoverShare = 0.01
	serveMoverStep  = 0.01
)

func serveConfig(traceCap int) paratreet.Config {
	return paratreet.Config{
		Procs: 2, WorkersPerProc: 1,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
		BucketSize: 16, FetchDepth: 3,
		Incremental: true,
		// The daemon always runs with a registry; so does the benchmark.
		Metrics: paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: traceCap}),
	}
}

// MaxWait is 200µs, not the daemon's 2 ms, so the median measures the
// program and not the flush timer; MaxQueue matches the generator's
// in-flight cap so that admission control never sheds what the generator
// was allowed to send.
var serveBatch = serve.BatchConfig{MaxBatch: 32, MaxWait: 200 * time.Microsecond, MaxWaves: 2, MaxQueue: serveInflight}

// poolEntry is one prebuilt request.
type poolEntry struct {
	path  string
	body  []byte
	query serve.Query
}

// serveInputs is everything generated from the seed: the two particle
// states, the request pool, the oracle and the arrival schedules.
type serveInputs struct {
	states [2][]particle.Particle
	pool   []poolEntry
	// oracle[s][i/serveVerifyGap] is the expected hit-ID list of pool
	// slot i (a multiple of serveVerifyGap) over particle state s.
	oracle [2][][]int64
}

func newServeInputs(n int, seed int64) *serveInputs {
	in := &serveInputs{}
	in.states[0] = anchoredClustered(n, seed, serveRadius)
	in.states[1] = particle.Clone(in.states[0])
	drift(in.states[1], rand.New(rand.NewSource(seed+1)), int(serveMoverShare*float64(n)), serveMoverStep)
	in.pool = newQueryPool(in.states[0], seed+2)
	for s := range in.oracle {
		in.oracle[s] = make([][]int64, (len(in.pool)+serveVerifyGap-1)/serveVerifyGap)
	}
	var wg sync.WaitGroup
	for s := range in.oracle {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < len(in.pool); i += serveVerifyGap {
				in.oracle[s][i/serveVerifyGap] = bruteForce(in.pool[i].query, in.states[s])
			}
		}(s)
	}
	wg.Wait()
	return in
}

// newQueryPool builds the request mix: 70% kNN with k in [8,32], 20%
// range with r in [0.005,0.015], 10% probe; 80% of positions within 0.005
// of a particle, 20% uniform in the unit box.
func newQueryPool(ps []particle.Particle, seed int64) []poolEntry {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]poolEntry, servePool)
	for i := range pool {
		pos := vec.V(rng.Float64(), rng.Float64(), rng.Float64())
		if rng.Float64() < 0.8 {
			c := ps[rng.Intn(len(ps))].Pos
			pos = vec.V(c.X+(2*rng.Float64()-1)*0.005, c.Y+(2*rng.Float64()-1)*0.005, c.Z+(2*rng.Float64()-1)*0.005)
		}
		req := map[string]any{"pos": []float64{pos.X, pos.Y, pos.Z}}
		e := &pool[i]
		switch u := rng.Float64(); {
		case u < 0.7:
			e.query = serve.Query{Kind: serve.KNN, Pos: pos, K: 8 + rng.Intn(25)}
			req["k"] = e.query.K
		case u < 0.9:
			e.query = serve.Query{Kind: serve.Range, Pos: pos, Radius: 0.005 + 0.01*rng.Float64()}
			req["radius"] = e.query.Radius
		default:
			vel := vec.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5)
			e.query = serve.Query{Kind: serve.Probe, Pos: pos, Radius: 0.002, Vel: vel, Dt: 0.01}
			req["radius"], req["dt"] = e.query.Radius, e.query.Dt
			req["vel"] = []float64{vel.X, vel.Y, vel.Z}
		}
		e.path = "/query/" + e.query.Kind.String()
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a map of finite numbers always marshals
		}
		e.body = body
	}
	return pool
}

// bruteForce answers q by scanning every particle, with the arithmetic
// and hit order of the server's visitors: (distance, ID) for kNN and
// range, ID for probe.
func bruteForce(q serve.Query, ps []particle.Particle) []int64 {
	type hit struct {
		dist float64
		id   int64
	}
	var hits []hit
	switch q.Kind {
	case serve.KNN:
		// The K nearest by squared distance, kept ascending.
		for i := range ps {
			d2 := ps[i].Pos.DistSq(q.Pos)
			if len(hits) == q.K && d2 >= hits[q.K-1].dist {
				continue
			}
			at := sort.Search(len(hits), func(j int) bool { return hits[j].dist > d2 })
			hits = append(hits, hit{})
			copy(hits[at+1:], hits[at:])
			hits[at] = hit{d2, ps[i].ID}
			if len(hits) > q.K {
				hits = hits[:q.K]
			}
		}
		for i := range hits {
			hits[i].dist = math.Sqrt(hits[i].dist)
		}
	case serve.Range:
		for i := range ps {
			if d2 := ps[i].Pos.DistSq(q.Pos); d2 <= q.Radius*q.Radius {
				hits = append(hits, hit{math.Sqrt(d2), ps[i].ID})
			}
		}
	case serve.Probe:
		for i := range ps {
			s := &ps[i]
			sep := s.Pos.Sub(q.Pos).Norm()
			if sep <= q.Radius+s.Radius+s.Vel.Sub(q.Vel).Norm()*q.Dt {
				hits = append(hits, hit{0, s.ID})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		return hits[i].id < hits[j].id
	})
	ids := make([]int64, len(hits))
	for i := range hits {
		ids[i] = hits[i].id
	}
	return ids
}

// poissonSchedule returns arrival offsets of a Poisson process of the
// given rate over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// service is one engine with its server: what set-up constructs.
type service struct {
	eng     *serve.Engine
	srv     *serve.Server
	handler http.Handler
	// firstBuild is how long NewEngine took: construction plus the first,
	// scratch build.
	firstBuild time.Duration
}

func (s *service) Close() {
	s.srv.Drain()
	s.eng.Close()
}

// newService builds the engine (first, scratch build included) and the
// server and answers the warm-up queries: the workload's set-up.
func newService(ps []particle.Particle, pool []poolEntry, traceCap int) (*service, error) {
	start := time.Now()
	eng, err := serve.NewEngine(serveConfig(traceCap), ps)
	if err != nil {
		return nil, err
	}
	built := time.Since(start)
	srv := serve.NewServer(eng, serve.ServerConfig{Batch: serveBatch})
	s := &service{eng: eng, srv: srv, handler: srv.Handler(), firstBuild: built}
	for i := 0; i < serveWarmup; i++ {
		if res := s.do(&pool[i%len(pool)], i%len(pool), time.Now(), false); res.status != http.StatusOK {
			s.Close()
			return nil, fmt.Errorf("warm-up query %d answered %d", i, res.status)
		}
	}
	return s, nil
}

// memResponse is the in-process http.ResponseWriter.
type memResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header {
	if m.hdr == nil {
		m.hdr = http.Header{}
	}
	return m.hdr
}

func (m *memResponse) WriteHeader(status int) {
	if m.status == 0 {
		m.status = status
	}
}

func (m *memResponse) Write(b []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	return m.body.Write(b)
}

// reqResult is what the generator keeps of one request.
type reqResult struct {
	due, start, done time.Time
	slot             int
	status           int // 0: dropped by the generator's in-flight cap
	bytes            int
	// decoded says the response body was parsed; ids and the timing block
	// are valid only then.
	decoded                  bool
	ids                      []int64
	queueUs, waveUs, totalUs float64
	batch                    int
}

// wireResponse is the part of the server's JSON answer the benchmark
// reads.
type wireResponse struct {
	Hits []struct {
		ID int64 `json:"id"`
	} `json:"hits"`
	Timing struct {
		QueueWaitUs float64 `json:"queue_wait_us"`
		WaveUs      float64 `json:"wave_us"`
		TotalUs     float64 `json:"total_us"`
		BatchSize   int     `json:"batch_size"`
	} `json:"timing"`
}

// do delivers one request to the handler. Responses of verified pool
// slots are always decoded; parseAll (the traced run) decodes every one
// for its timing block. Decoding happens after the done timestamp.
func (s *service) do(e *poolEntry, slot int, due time.Time, parseAll bool) reqResult {
	res := reqResult{due: due, slot: slot, start: time.Now()}
	req, err := http.NewRequest(http.MethodPost, e.path, bytes.NewReader(e.body))
	if err != nil {
		panic(err) // the method and path are constants of this file
	}
	var w memResponse
	s.handler.ServeHTTP(&w, req)
	res.done = time.Now()
	res.status, res.bytes = w.status, w.body.Len()
	if res.status == http.StatusOK && (parseAll || slot%serveVerifyGap == 0) {
		var wr wireResponse
		if err := json.Unmarshal(w.body.Bytes(), &wr); err == nil {
			res.decoded = true
			res.ids = make([]int64, len(wr.Hits))
			for i := range wr.Hits {
				res.ids[i] = wr.Hits[i].ID
			}
			res.queueUs, res.waveUs, res.totalUs = wr.Timing.QueueWaitUs, wr.Timing.WaveUs, wr.Timing.TotalUs
			res.batch = wr.Timing.BatchSize
		}
	}
	return res
}

// openLoop sends the schedule's requests at their due times: a single
// scheduler (this goroutine) sleeps to each due time and hands the request
// to a fresh goroutine, so a slow server never slows the arrivals.
func (s *service) openLoop(pool []poolEntry, schedule []time.Duration, parseAll bool) []reqResult {
	results := make([]reqResult, len(schedule))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for i, off := range schedule {
		due := begin.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slot := i % len(pool)
		if inflight.Load() >= serveInflight {
			results[i] = reqResult{due: due, slot: slot}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			results[i] = s.do(&pool[slot], slot, due, parseAll)
		}(i)
	}
	wg.Wait()
	return results
}

// closedLoop runs callers that each send their next request when the
// previous one is answered, for d.
func (s *service) closedLoop(pool []poolEntry, callers int, d time.Duration, parseAll bool) []reqResult {
	perCaller := make([][]reqResult, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				slot := int(next.Add(1)-1) % len(pool)
				perCaller[c] = append(perCaller[c], s.do(&pool[slot], slot, time.Now(), parseAll))
			}
		}(c)
	}
	wg.Wait()
	var out []reqResult
	for _, rs := range perCaller {
		out = append(out, rs...)
	}
	return out
}

// refresher calls Engine.Refresh every serveRefreshGap, toggling between
// the two particle states, until stop is closed; it finishes on state 0 so
// the read-only phase that follows can be checked against one state.
type refresher struct {
	ms []float64
	patchCounts
	err error
}

func (rf *refresher) run(eng *serve.Engine, states [2][]particle.Particle, stop <-chan struct{}) {
	cur := 0
	refresh := func(to int) bool {
		start := time.Now()
		if err := eng.Refresh(states[to]); err != nil {
			rf.err = err
			return false
		}
		rf.ms = append(rf.ms, ms(time.Since(start)))
		cur = to
		rf.add(eng.BuildStats())
		return true
	}
	for {
		select {
		case <-stop:
			if cur != 0 {
				refresh(0)
			}
			return
		case <-time.After(serveRefreshGap):
		}
		if !refresh(1 - cur) {
			return
		}
	}
}

// phaseTally classifies a phase's requests. states lists the particle
// states a verified response may match.
type phaseTally struct {
	attempted, failed int
	ok                []reqResult // answered 200 in time and, where verified, correct
	answered          int         // answered 200 (each went through a wave)
	rejected          int         // non-200 answers
	dropped           int
}

func tally(in *serveInputs, results []reqResult, states []int) phaseTally {
	var t phaseTally
	for i := range results {
		res := &results[i]
		t.attempted++
		switch {
		case res.status == 0:
			t.dropped++
			t.failed++
			continue
		case res.status != http.StatusOK:
			t.rejected++
			t.failed++
			continue
		}
		t.answered++
		if res.done.Sub(res.due) > serveDeadline {
			t.failed++
			continue
		}
		if res.slot%serveVerifyGap == 0 {
			match := false
			for _, s := range states {
				if res.decoded && equalIDs(res.ids, in.oracle[s][res.slot/serveVerifyGap]) {
					match = true
				}
			}
			if !match {
				t.failed++
				continue
			}
		}
		t.ok = append(t.ok, *res)
	}
	return t
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// latenciesMs returns due-to-response latencies of the given requests.
func latenciesMs(rs []reqResult) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = ms(rs[i].done.Sub(rs[i].due))
	}
	return out
}

// genLateMs is the generator's worst lateness: how long after its due
// time a request was actually handed to the server.
func genLateMs(rs []reqResult) float64 {
	var worst float64
	for i := range rs {
		if rs[i].status != 0 {
			worst = math.Max(worst, ms(rs[i].start.Sub(rs[i].due)))
		}
	}
	return worst
}

// A run is serveRounds+1 rounds on one service, each a steady, a refresh
// and a saturate phase back to back. The first round only warms the
// software caches (its first steady phase allocates 60% more per query
// than any later one) and is not measured. Every figure is then a median
// over the measured rounds, so one host stall — a round whose p90 reads
// 280 ms between neighbours at 3 ms — spoils one round, not the run.
const serveRounds = 6

// servePhases are the three phases' shares of a round.
var servePhases = struct{ steady, refresh, saturate float64 }{0.35, 0.35, 0.30}

// roundLength splits the measuring budget evenly over rounds.
func roundLength(budget time.Duration, rounds int) time.Duration {
	return budget / time.Duration(rounds)
}

// phaseResults is one round: one pass through the three phases.
type phaseResults struct {
	steady, refresh, saturate phaseTally
	steadyWall, saturateWall  time.Duration
	steadyAlloc               uint64
	steadyAllocObjs           uint64
	steadyWaves, satWaves     int64
	refresher                 refresher
	liveMB                    float64 // live heap when the round ended
}

// runRound runs steady, refresh and saturate on svc for the given round
// length, drawing the two arrival schedules from rng.
func runRound(svc *service, in *serveInputs, rng *rand.Rand, round time.Duration, parseAll bool) (*phaseResults, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(round)) }
	steadySched := poissonSchedule(rng, serveSteadyRate, share(servePhases.steady))
	refreshSched := poissonSchedule(rng, serveRefreshQPS, share(servePhases.refresh))
	p := &phaseResults{}
	waves := svc.eng.Registry().Counter(metrics.CServeWaves)
	ac := newAllocCounter()

	w0 := waves.Value()
	b0, o0 := ac.read()
	start := time.Now()
	res := svc.openLoop(in.pool, steadySched, parseAll)
	p.steadyWall = time.Since(start)
	b1, o1 := ac.read()
	p.steadyAlloc, p.steadyAllocObjs = b1-b0, o1-o0
	p.steadyWaves = waves.Value() - w0
	p.steady = tally(in, res, []int{0})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.refresher.run(svc.eng, in.states, stop)
	}()
	res = svc.openLoop(in.pool, refreshSched, parseAll)
	close(stop)
	wg.Wait()
	if p.refresher.err != nil {
		return nil, p.refresher.err
	}
	p.refresh = tally(in, res, []int{0, 1})

	w0 = waves.Value()
	start = time.Now()
	res = svc.closedLoop(in.pool, serveCallers, share(servePhases.saturate), parseAll)
	p.saturateWall = time.Since(start)
	p.satWaves = waves.Value() - w0
	p.saturate = tally(in, res, []int{0})
	// Reading the live heap collects twice, so every round also starts on a
	// freshly collected heap.
	p.liveMB, _ = memMB()
	return p, nil
}

// runRounds runs one warm-up round and then measured rounds on svc. It
// returns the measured rounds; the warm-up round's requests still count
// as attempted (and failed, if they fail), under phase names prefixed with
// label.
func runRounds(r *result, label string, svc *service, in *serveInputs, rng *rand.Rand, round time.Duration, measured int, parseAll bool) ([]*phaseResults, error) {
	var rounds []*phaseResults
	var total phaseResults
	refreshes, fallbacks := 0, 0
	for i := 0; i <= measured; i++ {
		p, err := runRound(svc, in, rng, round, parseAll)
		if err != nil {
			return nil, err
		}
		for _, pair := range [][2]*phaseTally{{&total.steady, &p.steady}, {&total.refresh, &p.refresh}, {&total.saturate, &p.saturate}} {
			pair[0].attempted += pair[1].attempted
			pair[0].failed += pair[1].failed
		}
		refreshes += len(p.refresher.ms)
		fallbacks += p.refresher.fallbacks
		if i > 0 {
			if len(p.steady.ok) == 0 || len(p.saturate.ok) == 0 {
				return nil, fmt.Errorf("round %d completed no steady (%d) or saturate (%d) request", i, len(p.steady.ok), len(p.saturate.ok))
			}
			rounds = append(rounds, p)
		}
	}
	r.count(label+"steady", total.steady.attempted, total.steady.failed)
	r.count(label+"refresh", total.refresh.attempted+refreshes, total.refresh.failed+fallbacks)
	r.count(label+"saturate", total.saturate.attempted, total.saturate.failed)
	return rounds, nil
}

// overRounds is the median over rounds of f.
func overRounds(rounds []*phaseResults, f func(*phaseResults) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, p := range rounds {
		xs[i] = f(p)
	}
	return median(xs)
}

// refreshMs pools the rounds' Engine.Refresh durations.
func refreshMs(rounds []*phaseResults) []float64 {
	var all []float64
	for _, p := range rounds {
		all = append(all, p.refresher.ms...)
	}
	return all
}

func steadyP50(p *phaseResults) float64 { return median(latenciesMs(p.steady.ok)) }

func runServe(o options, r *result) error {
	n := scaled(serveN, o.quick)
	budget := time.Duration(o.seconds * float64(time.Second))
	prepStart := time.Now()
	in := newServeInputs(n, o.seed)
	rng := rand.New(rand.NewSource(o.seed + 3))
	prepare := time.Since(prepStart)
	if o.trace {
		return traceServe(o, r, in, rng, prepare)
	}
	setupS, svc, err := measureSetup(in.states[0], func(ps []particle.Particle) (*service, error) {
		return newService(ps, in.pool, 0)
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	rounds, err := runRounds(r, "", svc, in, rng, roundLength(budget, serveRounds+1), serveRounds, false)
	if err != nil {
		return err
	}
	refresh := refreshMs(rounds)
	if len(refresh) == 0 {
		return fmt.Errorf("no Engine.Refresh completed in %d rounds", len(rounds))
	}
	r.set("setup_s", setupS)
	r.set("step_ms_p50", overRounds(rounds, steadyP50))
	r.set("step_ms_p90", overRounds(rounds, func(p *phaseResults) float64 { return quantile(latenciesMs(p.steady.ok), 0.9) }))
	r.set("work_per_s", overRounds(rounds, func(p *phaseResults) float64 {
		return float64(len(p.saturate.ok)) / p.saturateWall.Seconds()
	}))
	r.set("alloc_kb_per_step", overRounds(rounds, func(p *phaseResults) float64 {
		return float64(p.steadyAlloc) / float64(len(p.steady.ok)) / 1024
	}))
	r.set("mem_live_mb", overRounds(rounds, func(p *phaseResults) float64 { return p.liveMB }))
	_, sys := memMB()
	r.notef("MemStats.Sys %.1f MB", sys)
	r.set("rebuild_ms_p50", median(refresh))
	var steadyN, lateMs float64
	for _, p := range rounds {
		steadyN += float64(len(p.steady.ok))
		lateMs = math.Max(lateMs, math.Max(genLateMs(p.steady.ok), genLateMs(p.refresh.ok)))
	}
	r.notef("%d measured rounds after 1 warm-up round; figures are medians over rounds", len(rounds))
	perRound := ""
	for _, p := range rounds {
		perRound += fmt.Sprintf(" %.3f/%.0f", steadyP50(p), float64(len(p.saturate.ok))/p.saturateWall.Seconds())
	}
	r.notef("per round step_ms_p50/work_per_s:%s", perRound)
	r.notef("steady: %.0f responses per round (%d beyond p90) at %.0f req/s offered; refresh: %.0f req/s offered, %d refreshes timed; saturate: %d closed-loop callers",
		steadyN/float64(len(rounds)), int(steadyN/float64(len(rounds)))/10, serveSteadyRate, serveRefreshQPS, len(refresh), serveCallers)
	r.notef("generator worst lateness %.3f ms; oracle and inputs prepared in %.3f s (outside setup_s)", lateMs, prepare.Seconds())
	return nil
}
