package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"paratreet"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/vec"
)

// NewQuerySet generates n reproducible ad-hoc queries of mixed kinds
// (kNN, range, collision probe) with positions uniform in box. The same
// (n, seed) always yields the same set, so serving-path experiments and
// differential tests can replay identical workloads.
func NewQuerySet(n int, seed int64, box vec.Box, k int, radius float64) []serve.Query {
	rng := rand.New(rand.NewSource(seed))
	span := box.Max.Sub(box.Min)
	qs := make([]serve.Query, n)
	for i := range qs {
		pos := vec.V(
			box.Min.X+rng.Float64()*span.X,
			box.Min.Y+rng.Float64()*span.Y,
			box.Min.Z+rng.Float64()*span.Z,
		)
		switch i % 3 {
		case 0:
			qs[i] = serve.Query{Kind: serve.KNN, Pos: pos, K: 1 + rng.Intn(k)}
		case 1:
			qs[i] = serve.Query{Kind: serve.Range, Pos: pos, Radius: radius * (0.5 + rng.Float64())}
		default:
			qs[i] = serve.Query{
				Kind: serve.Probe, Pos: pos, Radius: radius * 0.2,
				Vel: vec.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5),
				Dt:  0.01,
			}
		}
	}
	return qs
}

// RunSingleShot answers qs one at a time against eng — each query is its
// own wave — returning the positionally matched answers. This is the
// unbatched library baseline the server's coalesced answers must match.
func RunSingleShot(eng *serve.Engine, qs []serve.Query) ([]serve.Answer, error) {
	out := make([]serve.Answer, len(qs))
	for i := range qs {
		ans, err := eng.RunBatch(qs[i : i+1])
		if err != nil {
			return nil, err
		}
		out[i] = ans[0]
	}
	return out, nil
}

// RunBatched answers qs through a Batcher with conc concurrent
// submitters, the way the HTTP server drives the engine. Returns the
// positionally matched answers; batching must not change any of them.
func RunBatched(eng *serve.Engine, cfg serve.BatchConfig, qs []serve.Query, conc int) ([]serve.Answer, error) {
	b := serve.NewBatcher[serve.Query, serve.Answer](cfg, eng.RunBatch)
	defer b.Drain()
	out := make([]serve.Answer, len(qs))
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += conc {
				ans, _, err := b.Submit(qs[i], time.Time{})
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = ans
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunServe measures the serving path: resident-tree queries answered one
// wave per query (single-shot) versus coalesced through the wave batcher
// under concurrent load, across the worker sweep. Reported series are
// seconds for both paths plus the batcher's mean realized batch size —
// the amortization knob that makes the coalesced path win.
func RunServe(opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{
		Title:  "serve: single-shot vs batched query waves",
		XLabel: "workers",
		Series: []string{"SingleShot", "Batched", "MeanBatch"},
	}
	box := vec.UnitBox()
	nq := 512
	if opts.N < 10000 {
		nq = 192
	}
	qs := NewQuerySet(nq, opts.Seed+1, box, 16, 0.05)
	for _, workers := range opts.Workers {
		cfg := octree(opts.procsFor(workers))
		cfg.CachePolicy, cfg.FetchDepth = paratreet.CacheWaitFree, 3
		cfg = opts.config(cfg)
		if cfg.Metrics == nil { // MeanBatch reads the engine's registry
			cfg.Metrics = paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
		}
		eng, err := serve.NewEngine(cfg, particle.NewClustered(opts.N, opts.Seed, box, 8))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		single, err := RunSingleShot(eng, qs)
		if err != nil {
			eng.Close()
			return nil, err
		}
		singleDur := time.Since(t0)
		bcfg := serve.BatchConfig{MaxBatch: 32, MaxWaves: 2, Registry: cfg.Metrics}
		t0 = time.Now()
		batched, err := RunBatched(eng, bcfg, qs, 32)
		if err != nil {
			eng.Close()
			return nil, err
		}
		batchedDur := time.Since(t0)
		for i := range qs {
			if !slices.Equal(single[i].Hits, batched[i].Hits) { // the batcher must not change answers
				eng.Close()
				return nil, fmt.Errorf("serve: batched answer %d diverges from single-shot", i)
			}
		}
		snap := eng.Snapshot()
		meanBatch := snap.Sketches[metrics.HServeBatchSize].Mean()
		opts.Metrics.collect(fmt.Sprintf("serve/w%d", workers), snap)
		eng.Close()
		res.Rows = append(res.Rows, Row{X: workers, Values: map[string]float64{
			"SingleShot": singleDur.Seconds(),
			"Batched":    batchedDur.Seconds(),
			"MeanBatch":  meanBatch,
		}})
	}
	res.Notes = append(res.Notes,
		"batched answers are checked identical to single-shot before timing is reported",
		"MeanBatch > 1 shows coalescing: one traversal wave amortized across concurrent queries",
	)
	res.Elapsed = time.Since(start)
	return res, nil
}
