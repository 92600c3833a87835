package serve_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"paratreet"
	"paratreet/internal/experiments"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/vec"
)

func testConfig(d paratreet.DecompType, p paratreet.CachePolicy) paratreet.Config {
	return paratreet.Config{
		Procs: 2, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: d, BucketSize: 8,
		CachePolicy: p, FetchDepth: 2,
		Metrics: paratreet.NewMetricsRegistry(paratreet.MetricsOptions{}),
	}
}

func testParticles(n int) []paratreet.Particle {
	ps := particle.NewClustered(n, 7, vec.UnitBox(), 6)
	for i := range ps {
		ps[i].Radius = 0.004
	}
	return ps
}

func testQueries(n int) []serve.Query {
	return experiments.NewQuerySet(n, 11, vec.UnitBox(), 8, 0.08)
}

// bruteAnswer answers one query by scanning every particle, with the
// same float operations and result ordering the engine uses.
func bruteAnswer(ps []paratreet.Particle, q serve.Query) serve.Answer {
	var hits []serve.Hit
	switch q.Kind {
	case serve.KNN:
		type cand struct {
			d2 float64
			i  int
		}
		cands := make([]cand, len(ps))
		for i := range ps {
			cands[i] = cand{ps[i].Pos.DistSq(q.Pos), i}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d2 != cands[b].d2 {
				return cands[a].d2 < cands[b].d2
			}
			return ps[cands[a].i].ID < ps[cands[b].i].ID
		})
		k := q.K
		if k > len(cands) {
			k = len(cands)
		}
		for _, c := range cands[:k] {
			hits = append(hits, serve.Hit{ID: ps[c.i].ID, Dist: math.Sqrt(c.d2), Pos: ps[c.i].Pos})
		}
	case serve.Range:
		r2 := q.Radius * q.Radius
		for i := range ps {
			if d2 := ps[i].Pos.DistSq(q.Pos); d2 <= r2 {
				hits = append(hits, serve.Hit{ID: ps[i].ID, Dist: math.Sqrt(d2), Pos: ps[i].Pos})
			}
		}
	case serve.Probe:
		for i := range ps {
			s := &ps[i]
			sep := s.Pos.Sub(q.Pos).Norm()
			sweep := s.Vel.Sub(q.Vel).Norm() * q.Dt
			if sep <= q.Radius+s.Radius+sweep {
				hits = append(hits, serve.Hit{ID: s.ID, Dist: sep, Pos: s.Pos})
			}
		}
	}
	if q.Kind == serve.Probe {
		sort.Slice(hits, func(i, j int) bool { return hits[i].ID < hits[j].ID })
	} else {
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].Dist != hits[j].Dist {
				return hits[i].Dist < hits[j].Dist
			}
			return hits[i].ID < hits[j].ID
		})
	}
	return serve.Answer{Hits: hits}
}

func diffAnswers(t *testing.T, what string, i int, q serve.Query, got, want serve.Answer) {
	t.Helper()
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("%s query %d (%v): %d hits, want %d", what, i, q.Kind, len(got.Hits), len(want.Hits))
	}
	for j := range got.Hits {
		if got.Hits[j] != want.Hits[j] {
			t.Fatalf("%s query %d (%v) hit %d = %+v, want %+v", what, i, q.Kind, j, got.Hits[j], want.Hits[j])
		}
	}
}

// TestEngineDifferential proves the serving path answers exactly like a
// brute-force scan, and that batching never changes an answer, across
// the decomposition x cache-policy matrix.
func TestEngineDifferential(t *testing.T) {
	decomps := []struct {
		name string
		d    paratreet.DecompType
	}{{"sfc", paratreet.DecompSFC}, {"oct", paratreet.DecompOct}}
	policies := []struct {
		name string
		p    paratreet.CachePolicy
	}{{"waitfree", paratreet.CacheWaitFree}, {"perthread", paratreet.CachePerThread}}
	ps := testParticles(1500)
	qs := testQueries(48)
	want := make([]serve.Answer, len(qs))
	for i, q := range qs {
		want[i] = bruteAnswer(ps, q)
	}
	for _, d := range decomps {
		for _, p := range policies {
			t.Run(fmt.Sprintf("%s/%s", d.name, p.name), func(t *testing.T) {
				eng, err := serve.NewEngine(testConfig(d.d, p.p), append([]paratreet.Particle(nil), ps...))
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				single, err := experiments.RunSingleShot(eng, qs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range qs {
					diffAnswers(t, "single-shot", i, qs[i], single[i], want[i])
				}
				bcfg := serve.BatchConfig{MaxBatch: 16, MaxWaves: 2}
				batched, err := experiments.RunBatched(eng, bcfg, qs, 16)
				if err != nil {
					t.Fatal(err)
				}
				for i := range qs {
					diffAnswers(t, "batched", i, qs[i], batched[i], want[i])
				}
			})
		}
	}
}

// TestEngineDifferentialFaults proves delivery chaos (drops, duplicates,
// jitter) changes no answer: the retry machinery hides it.
func TestEngineDifferentialFaults(t *testing.T) {
	fc, err := paratreet.ParseFaultSpec("drop=0.05,dup=0.05,jitter=100us,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree)
	cfg.Faults = fc
	cfg.Latency = 20 * time.Microsecond
	ps := testParticles(1200)
	qs := testQueries(30)
	eng, err := serve.NewEngine(cfg, append([]paratreet.Particle(nil), ps...))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	got, err := experiments.RunSingleShot(eng, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		diffAnswers(t, "faulty", i, qs[i], got[i], bruteAnswer(ps, qs[i]))
	}
}

// TestEngineConcurrentWaves is the race-mode acceptance check: several
// waves in flight over the same resident tree at once, every answer
// still identical to the single-shot baseline, and the concurrency
// actually observed (peak waves >= 2).
func TestEngineConcurrentWaves(t *testing.T) {
	ps := testParticles(1500)
	qs := testQueries(64)
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), append([]paratreet.Particle(nil), ps...))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := experiments.RunSingleShot(eng, qs)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const rounds = 5
	chunk := len(qs) / goroutines
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			lo, hi := g*chunk, (g+1)*chunk
			for r := 0; r < rounds; r++ {
				got, err := eng.RunBatch(qs[lo:hi])
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				for i := range got {
					if len(got[i].Hits) != len(want[lo+i].Hits) {
						t.Errorf("goroutine %d query %d: %d hits, want %d", g, lo+i, len(got[i].Hits), len(want[lo+i].Hits))
						return
					}
					for j := range got[i].Hits {
						if got[i].Hits[j] != want[lo+i].Hits[j] {
							t.Errorf("goroutine %d query %d hit %d differs under concurrency", g, lo+i, j)
							return
						}
					}
				}
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	if peak := eng.PeakConcurrentWaves(); peak < 2 {
		t.Errorf("peak concurrent waves = %d, want >= 2", peak)
	}
}

// TestEngineRefresh proves the build path still works after serving:
// a rebuild over a replacement dataset answers for the new particles.
func TestEngineRefresh(t *testing.T) {
	ps := testParticles(1000)
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), append([]paratreet.Particle(nil), ps...))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ps2 := particle.NewUniform(800, 99, vec.UnitBox())
	if err := eng.Refresh(append([]paratreet.Particle(nil), ps2...)); err != nil {
		t.Fatal(err)
	}
	if got := eng.NumParticles(); got != 800 {
		t.Fatalf("NumParticles after Refresh = %d, want 800", got)
	}
	qs := testQueries(12)
	got, err := experiments.RunSingleShot(eng, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		diffAnswers(t, "refreshed", i, qs[i], got[i], bruteAnswer(ps2, qs[i]))
	}
}

// TestEngineRefreshRejectsNonFinite: a replacement set with a NaN position
// is refused with an error naming the particle, in both build modes, and
// the engine keeps answering from the tree it had.
func TestEngineRefreshRejectsNonFinite(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		ps := testParticles(1000)
		cfg := testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree)
		cfg.Incremental = incremental
		eng, err := serve.NewEngine(cfg, append([]paratreet.Particle(nil), ps...))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		poisoned := append([]paratreet.Particle(nil), ps...)
		poisoned[417].Pos.Y = math.NaN()
		err = eng.Refresh(poisoned)
		if want := fmt.Sprintf("particle %d", poisoned[417].ID); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("incremental=%v: Refresh over a NaN position returned %v, want an error naming %q", incremental, err, want)
		}
		if got := eng.NumParticles(); got != len(ps) {
			t.Fatalf("incremental=%v: NumParticles = %d after a refused Refresh, want %d", incremental, got, len(ps))
		}
		qs := testQueries(12)
		got, err := experiments.RunSingleShot(eng, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			diffAnswers(t, "after refused refresh", i, qs[i], got[i], bruteAnswer(ps, qs[i]))
		}
		// The engine is not wedged: a clean refresh still goes through.
		if err := eng.Refresh(nil); err != nil {
			t.Fatalf("incremental=%v: Refresh(nil) after a refused one: %v", incremental, err)
		}
	}
}

// engParticles returns the particle set backing eng's answers; the
// engine owns ps after NewEngine, so tests that kept no copy read
// through this narrow door.
func engParticles(_ *serve.Engine, ps []paratreet.Particle) []paratreet.Particle {
	return ps
}

// TestBatcherMetrics proves the serve.* instruments fill in under
// back-pressure: batch sizes above 1, queue waits recorded, and an
// EvBatch span per wave. The first waves are held until every other
// request has queued behind them, so coalescing does not depend on how
// fast this host runs a wave.
func TestBatcherMetrics(t *testing.T) {
	// Roomy ring: wave traversals emit task/message spans too, and the
	// EvBatch-per-wave check below needs none of them overwritten.
	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: 1 << 16})
	cfg := testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree)
	cfg.Metrics = reg
	eng, err := serve.NewEngine(cfg, testParticles(1200))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	qs := testQueries(64)
	const maxWaves = 2
	held := make(chan struct{})
	b := serve.NewBatcher[serve.Query, serve.Answer](
		serve.BatchConfig{MaxBatch: 16, MaxWaves: maxWaves, Registry: reg},
		func(batch []serve.Query) ([]serve.Answer, error) {
			<-held
			return eng.RunBatch(batch)
		})
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := b.Submit(q, time.Time{}); err != nil {
				t.Error(err)
			}
		}()
	}
	for b.QueueDepth() != len(qs)-maxWaves {
		runtime.Gosched()
	}
	close(held)
	wg.Wait()
	b.Drain()
	snap := eng.Snapshot()
	if got := snap.Counter(metrics.CServeRequests); got != int64(len(qs)) {
		t.Errorf("%s = %d, want %d", metrics.CServeRequests, got, len(qs))
	}
	waves := snap.Counter(metrics.CServeWaves)
	if waves <= 0 || waves >= int64(len(qs)) {
		t.Errorf("%s = %d, want in (0, %d): batching must coalesce", metrics.CServeWaves, waves, len(qs))
	}
	h, ok := snap.Sketches[metrics.HServeBatchSize]
	if !ok {
		t.Fatalf("sketch %s missing", metrics.HServeBatchSize)
	}
	if h.Max < 2 {
		t.Errorf("batch size max = %d, want >= 2 under concurrent load", h.Max)
	}
	if qw, ok := snap.Sketches[metrics.HServeQueueWait]; !ok || qw.Count != int64(len(qs)) {
		t.Errorf("queue wait sketch = %+v, want %d observations", qw, len(qs))
	}
	batchSpans := 0
	for _, sp := range snap.Spans {
		if sp.Kind == metrics.EvBatch {
			batchSpans++
		}
	}
	if int64(batchSpans) != waves {
		t.Errorf("EvBatch spans = %d, want one per wave (%d)", batchSpans, waves)
	}
}

// latticeParticles returns the points of a side³ lattice with spacing 1/16,
// IDs shuffled so that no traversal order follows them. Every coordinate,
// and every squared distance to a point of the half-spacing lattice, is
// exact: equal distances are the rule, not the exception.
func latticeParticles(side int, seed int64) []paratreet.Particle {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(side * side * side)
	ps := make([]paratreet.Particle, 0, len(ids))
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				ps = append(ps, paratreet.Particle{
					ID:     int64(ids[len(ps)]),
					Mass:   1,
					Pos:    paratreet.V(0.125+float64(x)/16, 0.125+float64(y)/16, 0.125+float64(z)/16),
					Radius: 1.0 / 64,
				})
			}
		}
	}
	return ps
}

// latticeQueries returns a kNN/range/probe pool at points of the
// half-spacing lattice over a side³ lattice, radii whole multiples of the
// spacing: neighbours tie at the k-th distance and sit exactly on range
// boundaries.
func latticeQueries(n, side int, seed int64) []serve.Query {
	rng := rand.New(rand.NewSource(seed))
	coord := func() float64 { return 0.125 + float64(rng.Intn(2*side))/32 }
	qs := make([]serve.Query, n)
	for i := range qs {
		pos := paratreet.V(coord(), coord(), coord())
		switch i % 3 {
		case 0:
			qs[i] = serve.Query{Kind: serve.KNN, Pos: pos, K: 1 + rng.Intn(8)}
		case 1:
			qs[i] = serve.Query{Kind: serve.Range, Pos: pos, Radius: float64(1+rng.Intn(2)) / 16}
		default:
			qs[i] = serve.Query{Kind: serve.Probe, Pos: pos, Radius: 1.0 / 32, Dt: 0.01}
		}
	}
	return qs
}

// TestEngineAnswersIndependentOfBatch holds Answer's promise that batching
// changes nothing, where it is easiest to break: on a lattice, where kNN
// candidates tie at the k-th distance and range hits sit on the boundary,
// and on the clustered set, at one to four processes. A mixed pool is
// answered each query alone, all in one batch, and in shuffled batches of
// 2 to 32; every answer must equal a brute-force scan's.
func TestEngineAnswersIndependentOfBatch(t *testing.T) {
	const side = 12
	sets := []struct {
		name string
		ps   []paratreet.Particle
		qs   []serve.Query
	}{
		{"lattice", latticeParticles(side, 1), latticeQueries(96, side, 2)},
		{"clustered", testParticles(1500), testQueries(96)},
	}
	for _, set := range sets {
		want := make([]serve.Answer, len(set.qs))
		for i, q := range set.qs {
			want[i] = bruteAnswer(set.ps, q)
		}
		for procs := 1; procs <= 4; procs++ {
			t.Run(fmt.Sprintf("%s/procs=%d", set.name, procs), func(t *testing.T) {
				cfg := testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree)
				cfg.Procs = procs
				eng, err := serve.NewEngine(cfg, append([]paratreet.Particle(nil), set.ps...))
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				qs := set.qs

				alone, err := experiments.RunSingleShot(eng, qs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range qs {
					diffAnswers(t, "alone", i, qs[i], alone[i], want[i])
				}

				one, err := eng.RunBatch(qs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range qs {
					diffAnswers(t, "one batch", i, qs[i], one[i], want[i])
				}

				rng := rand.New(rand.NewSource(int64(procs)))
				order := rng.Perm(len(qs))
				for len(order) > 0 {
					n := min(2+rng.Intn(31), len(order))
					batch := make([]serve.Query, n)
					for j, i := range order[:n] {
						batch[j] = qs[i]
					}
					got, err := eng.RunBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					for j, i := range order[:n] {
						diffAnswers(t, fmt.Sprintf("batch of %d", n), i, qs[i], got[j], want[i])
					}
					order = order[n:]
				}
			})
		}
	}
}

// TestKNNWaveCostIndependentOfBatch: kNN queries batched into one wave
// make exactly the open/prune decisions they make one at a time. Each
// walks alone, nearest subtrees first, so a batch costs the sum of its
// queries and no more; a shared walk that pushed children in index order
// filled heaps from far leaves and decided several times as much.
func TestKNNWaveCostIndependentOfBatch(t *testing.T) {
	cfg := testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree)
	cfg.Procs, cfg.WorkersPerProc = 1, 2
	eng, err := serve.NewEngine(cfg, testParticles(4000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var qs []serve.Query
	for _, q := range testQueries(96) {
		if q.Kind == serve.KNN {
			qs = append(qs, q)
		}
	}
	if len(qs) != 32 {
		t.Fatalf("setup: %d kNN queries, want 32", len(qs))
	}
	decisions := func() int64 {
		snap := eng.Snapshot()
		return snap.Counter(metrics.CTraverseOpens) + snap.Counter(metrics.CTraversePrunes)
	}
	start := decisions()
	if _, err := experiments.RunSingleShot(eng, qs); err != nil {
		t.Fatal(err)
	}
	alone := decisions() - start
	start = decisions()
	if _, err := eng.RunBatch(qs); err != nil {
		t.Fatal(err)
	}
	batched := decisions() - start
	if alone == 0 || batched != alone {
		t.Errorf("a batch of %d kNN queries made %d open/prune decisions, the same queries alone %d", len(qs), batched, alone)
	}
}
