package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"paratreet/internal/metrics"
)

// Rejection errors Submit returns without running the query. The HTTP
// layer maps them to 429 / 504 / 503.
var (
	// ErrOverloaded rejects a submission because the admission queue is
	// full — the fast 429-style shed that keeps queue wait bounded.
	ErrOverloaded = errors.New("serve: queue full")
	// ErrDeadlineExceeded rejects a request whose deadline expired while
	// it was still queued, before its wave launched.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before wave launch")
	// ErrDraining rejects new submissions during graceful shutdown.
	ErrDraining = errors.New("serve: draining")
)

// BatchConfig parameterizes a Batcher.
type BatchConfig struct {
	// MaxBatch caps the requests one wave takes from the queue. Default 32.
	MaxBatch int
	// MaxWait is ignored: a wave launches the moment a request is queued
	// and a wave slot is free, so there is no flush window to bound.
	//
	// Deprecated: kept only until the frozen benchmark stops setting it.
	MaxWait time.Duration
	// MaxQueue bounds the pending queue; submissions beyond it are
	// rejected with ErrOverloaded. Default 4*MaxBatch.
	MaxQueue int
	// MaxWaves bounds concurrently running waves; requests arriving while
	// every slot is busy coalesce in the queue until one frees. Default 2.
	MaxWaves int
	// Registry, when non-nil, records the serve.* counters and the batch
	// size / queue wait / wave time / request latency sketches.
	Registry *metrics.Registry
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxBatch
	}
	if c.MaxWaves <= 0 {
		c.MaxWaves = 2
	}
	return c
}

// Timing is the per-request breakdown returned to every caller: when the
// request was enqueued, how long it waited for its wave to launch, how
// long the wave's traversal took, and how many requests shared the wave.
type Timing struct {
	Enqueued  time.Time
	QueueWait time.Duration
	Wave      time.Duration
	BatchSize int
}

// outcome is what a wave (or a rejection) delivers to one waiting Submit.
type outcome[Resp any] struct {
	resp   Resp
	timing Timing
	err    error
}

// pending is one queued request.
type pending[Req, Resp any] struct {
	req      Req
	deadline time.Time
	enqueued time.Time
	done     chan outcome[Resp]
}

// Batcher coalesces concurrent Submit calls into batches and runs each
// batch through one call of the wave executor. It is the request-level
// analogue of the transposed traversal loop: where the engine amortizes
// one tree walk across a partition's buckets, the batcher amortizes one
// wave across in-flight requests. No clock is involved: a queued request
// launches at once while a wave slot is free, and batches form only from
// back-pressure, out of what arrived while MaxWaves waves were running.
//
// All state transitions happen in pump, under mu; Submit, wave completion
// and Drain all converge there.
type Batcher[Req, Resp any] struct {
	cfg BatchConfig
	run func([]Req) ([]Resp, error)

	mu       sync.Mutex
	cond     *sync.Cond            // signaled on queue/inflight changes, for Drain
	queue    []*pending[Req, Resp] // guarded by mu
	inflight int                   // guarded by mu
	draining bool                  // guarded by mu
	waveWG   sync.WaitGroup

	// Metrics handles, resolved once; all nil-safe when Registry is nil.
	requests         *metrics.Counter
	waves            *metrics.Counter
	rejectedQueue    *metrics.Counter
	rejectedDeadline *metrics.Counter
	rejectedDraining *metrics.Counter
	batchSize        *metrics.Sketch
	queueWait        *metrics.Sketch
	waveTime         *metrics.Sketch
	requestLat       *metrics.Sketch
	qDepth           *metrics.Gauge
	inflightG        *metrics.Gauge
	tracer           *metrics.Tracer
}

// NewBatcher constructs a batcher over the wave executor run, which
// receives one coalesced batch and returns positional responses.
func NewBatcher[Req, Resp any](cfg BatchConfig, run func([]Req) ([]Resp, error)) *Batcher[Req, Resp] {
	cfg = cfg.withDefaults()
	b := &Batcher[Req, Resp]{
		cfg:              cfg,
		run:              run,
		requests:         cfg.Registry.Counter(metrics.CServeRequests),
		waves:            cfg.Registry.Counter(metrics.CServeWaves),
		rejectedQueue:    cfg.Registry.Counter(metrics.CServeRejectedQueue),
		rejectedDeadline: cfg.Registry.Counter(metrics.CServeRejectedDeadline),
		rejectedDraining: cfg.Registry.Counter(metrics.CServeRejectedDraining),
		batchSize:        cfg.Registry.Sketch(metrics.HServeBatchSize),
		queueWait:        cfg.Registry.Sketch(metrics.HServeQueueWait),
		waveTime:         cfg.Registry.Sketch(metrics.HServeWave),
		requestLat:       cfg.Registry.Sketch(metrics.HServeRequest),
		qDepth:           cfg.Registry.Gauge(metrics.GServeQueueDepth),
		inflightG:        cfg.Registry.Gauge(metrics.GServeInflightWaves),
		tracer:           cfg.Registry.Tracer(),
	}
	b.cond = sync.NewCond(&b.mu)
	// Capacity gauges are static per batcher; publish once so saturation
	// ratios (depth/cap, inflight/max) are computable from one scrape.
	cfg.Registry.Gauge(metrics.GServeQueueCap).Set(int64(cfg.MaxQueue))
	cfg.Registry.Gauge(metrics.GServeMaxWaves).Set(int64(cfg.MaxWaves))
	return b
}

// Draining reports whether Drain has begun (readiness probes).
func (b *Batcher[Req, Resp]) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// QueueDepth reports the current pending-queue length.
func (b *Batcher[Req, Resp]) QueueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// InFlight reports the number of currently running waves.
func (b *Batcher[Req, Resp]) InFlight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inflight
}

// Submit enqueues one request and blocks until its wave completes (or it
// is rejected). deadline zero means no deadline; a request whose deadline
// passes while queued is rejected with ErrDeadlineExceeded, at the next
// pump, before any wave runs it. The returned Timing is valid whenever err
// is nil.
func (b *Batcher[Req, Resp]) Submit(req Req, deadline time.Time) (Resp, Timing, error) {
	var zero Resp
	p := &pending[Req, Resp]{
		req:      req,
		deadline: deadline,
		enqueued: time.Now(),
		done:     make(chan outcome[Resp], 1),
	}
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		b.rejectedDraining.Inc(0)
		return zero, Timing{}, ErrDraining
	}
	if len(b.queue) >= b.cfg.MaxQueue {
		b.mu.Unlock()
		b.rejectedQueue.Inc(0)
		return zero, Timing{}, ErrOverloaded
	}
	b.queue = append(b.queue, p)
	b.requests.Inc(0)
	b.mu.Unlock()
	b.pump()
	out := <-p.done
	return out.resp, out.timing, out.err
}

// Drain stops intake (new Submits fail with ErrDraining) and blocks until
// every queued request has gone through its wave and all in-flight waves
// have delivered. Safe to call more than once.
func (b *Batcher[Req, Resp]) Drain() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	b.pump()
	b.mu.Lock()
	for len(b.queue) > 0 || b.inflight > 0 {
		b.cond.Wait()
	}
	b.mu.Unlock()
	b.waveWG.Wait()
}

// pump advances the batcher state machine: it expires overdue requests
// and launches the queue, MaxBatch at a time, into free wave slots. It is
// the single place guarded state changes, and every path converges here —
// Submit, wave completion, and Drain — so it must be safe to call at any
// time from any goroutine (extra calls are no-ops).
func (b *Batcher[Req, Resp]) pump() {
	now := time.Now()
	var launches [][]*pending[Req, Resp]
	b.mu.Lock()
	// Reject requests whose deadline passed while queued, before their
	// wave launches.
	b.queue = slices.DeleteFunc(b.queue, func(p *pending[Req, Resp]) bool {
		if p.deadline.IsZero() || now.Before(p.deadline) {
			return false
		}
		b.rejectedDeadline.Inc(0)
		p.done <- outcome[Resp]{err: ErrDeadlineExceeded}
		return true
	})
	// Launch while anything is queued and a wave slot is free.
	for len(b.queue) > 0 && b.inflight < b.cfg.MaxWaves {
		n := min(len(b.queue), b.cfg.MaxBatch)
		launches = append(launches, slices.Clone(b.queue[:n]))
		b.queue = slices.Delete(b.queue, 0, n)
		b.inflight++
		b.waves.Inc(0)
	}
	b.qDepth.Set(int64(len(b.queue)))
	b.inflightG.Set(int64(b.inflight))
	b.cond.Broadcast()
	b.mu.Unlock()
	for _, batch := range launches {
		b.waveWG.Add(1)
		go func() {
			defer b.waveWG.Done()
			b.runWave(batch)
		}()
	}
}

// runWave executes one batch through the wave executor and delivers each
// request's response and timing breakdown, then frees the wave slot.
func (b *Batcher[Req, Resp]) runWave(batch []*pending[Req, Resp]) {
	start := time.Now()
	reqs := make([]Req, len(batch))
	for i, p := range batch {
		reqs[i] = p.req
	}
	resps, err := b.run(reqs)
	waveDur := time.Since(start)
	if err == nil && len(resps) != len(batch) {
		err = fmt.Errorf("serve: wave executor returned %d responses for %d requests", len(resps), len(batch))
	}
	b.batchSize.Observe(int64(len(batch)))
	b.waveTime.Observe(waveDur.Nanoseconds())
	if b.tracer != nil {
		b.tracer.Emit(metrics.EvBatch, fmt.Sprintf("wave[%d]", len(batch)), -1, -1, 0, start, waveDur)
	}
	for i, p := range batch {
		wait := start.Sub(p.enqueued)
		b.queueWait.Observe(wait.Nanoseconds())
		b.requestLat.Observe((wait + waveDur).Nanoseconds())
		out := outcome[Resp]{timing: Timing{
			Enqueued:  p.enqueued,
			QueueWait: wait,
			Wave:      waveDur,
			BatchSize: len(batch),
		}}
		if err != nil {
			out.err = err
		} else {
			out.resp = resps[i]
		}
		p.done <- out
	}
	b.mu.Lock()
	b.inflight--
	b.mu.Unlock()
	b.pump()
}
