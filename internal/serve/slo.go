package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"paratreet/internal/metrics"
)

// SLOConfig parameterizes the service-level-objective watchdog: a
// rolling-window evaluation of error rate and tail latency that flips
// /readyz when the service is out of objective, so load balancers stop
// routing to an overloaded or degraded instance before clients feel it.
type SLOConfig struct {
	// Window is the rolling evaluation window. Default 10s.
	Window time.Duration
	// Interval is both the window's slot granularity and the evaluation
	// cadence. Default 1s.
	Interval time.Duration
	// MaxErrorRate breaches when (rejections + wave errors) / requests in
	// the window exceeds it (e.g. 0.05 for 5%). 0 disables the error-rate
	// objective.
	MaxErrorRate float64
	// MaxP99 breaches when the window's p99 end-to-end request latency
	// exceeds it. 0 disables the latency objective.
	MaxP99 time.Duration
	// MinSamples suppresses evaluation below this many requests in the
	// window, so a single slow request on an idle service cannot flip
	// readiness. Default 20.
	MinSamples int
	// Registry records serve.slo_breaches, the serve.ready gauge, and
	// EvSLO trace instants (nil disables all three).
	Registry *metrics.Registry
	// Log receives one-line JSON breach/recovery records. Default
	// os.Stderr.
	Log io.Writer
}

// active reports whether any objective is configured.
func (c SLOConfig) active() bool { return c.MaxErrorRate > 0 || c.MaxP99 > 0 }

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Interval > c.Window {
		c.Interval = c.Window
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.Log == nil {
		c.Log = os.Stderr
	}
	return c
}

// SLOStatus is one evaluation's outcome, served by /readyz.
type SLOStatus struct {
	// Breached is true while the service is out of objective.
	Breached bool `json:"breached"`
	// Reasons lists the violated objectives ("error_rate", "p99").
	Reasons []string `json:"reasons,omitempty"`
	// ErrorRate is the window's error fraction.
	ErrorRate float64 `json:"error_rate"`
	// P99 is the window's p99 request latency in nanoseconds.
	P99 int64 `json:"p99_ns"`
	// Requests and Errors are the window totals the rates derive from.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// sloSlot is one Interval-wide slice of the rolling window.
type sloSlot struct {
	total  int64
	errors int64
	lat    *metrics.Sketch
}

// Watchdog maintains the rolling request window and evaluates the SLO on
// a ticker. Requests are recorded by the HTTP layer; per-slot latency
// sketches are merged (metrics.Sketch.Merge) at evaluation time, so
// recording stays a few atomic adds and evaluation costs one bucketwise
// window merge — the streaming analogue of re-sorting the window.
type Watchdog struct {
	cfg SLOConfig

	mu        sync.Mutex
	slots     []sloSlot // guarded by mu
	cur       int       // guarded by mu
	curStart  time.Time // guarded by mu
	breached  bool      // guarded by mu
	status    SLOStatus // guarded by mu
	lastReqID int64     // guarded by mu
	scratch   *metrics.Sketch

	breaches *metrics.Counter
	tracer   *metrics.Tracer
	// onTransition runs after each breach (true) or recovery (false):
	// it keeps the serve.ready gauge, set by whoever owns it.
	onTransition func(breached bool)

	now      func() time.Time // test hook; time.Now outside tests
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewWatchdog constructs a watchdog that owns the serve.ready gauge: 1,
// and 0 from a breach to its recovery. Start launches its evaluation
// ticker (tests drive Evaluate directly instead).
func NewWatchdog(cfg SLOConfig) *Watchdog {
	ready := cfg.Registry.Gauge(metrics.GServeReady)
	ready.Set(1)
	return newWatchdog(cfg, func(breached bool) { ready.Set(gaugeBool(!breached)) })
}

// newWatchdog constructs a watchdog that calls onTransition after each
// breach and recovery; a Server passes its own readiness, which weighs
// drain too.
func newWatchdog(cfg SLOConfig, onTransition func(breached bool)) *Watchdog {
	cfg = cfg.withDefaults()
	n := int((cfg.Window + cfg.Interval - 1) / cfg.Interval)
	if n < 1 {
		n = 1
	}
	slots := make([]sloSlot, n)
	for i := range slots {
		slots[i].lat = metrics.NewSketch()
	}
	w := &Watchdog{
		cfg:      cfg,
		slots:    slots,
		curStart: time.Now(),
		scratch:  metrics.NewSketch(),
		breaches: cfg.Registry.Counter(metrics.CServeSLOBreaches),
		tracer:   cfg.Registry.Tracer(),
		now:      time.Now,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),

		onTransition: onTransition,
	}
	return w
}

// Start launches the evaluation ticker.
func (w *Watchdog) Start() {
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Evaluate()
			}
		}
	}()
}

// Stop halts the evaluation ticker. Safe to call more than once and on a
// nil watchdog; Start must have run.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Record accounts one finished request: its end-to-end latency and
// whether it failed (rejections and wave errors count; client-side 400s
// never reach the batcher and are not errors of the service). id is the
// request's correlation id, carried into breach records.
func (w *Watchdog) Record(id int64, latency time.Duration, failed bool) {
	w.advance(w.now())
	w.mu.Lock()
	s := &w.slots[w.cur]
	s.total++
	if failed {
		s.errors++
	}
	s.lat.Observe(latency.Nanoseconds())
	w.lastReqID = id
	w.mu.Unlock()
}

// advance rotates the slot ring forward to cover now. It takes the lock
// itself; callers re-lock for their own slot access afterwards (a rival
// rotation between the two sections only re-slots work onto the newest
// interval, which is where a fresh observation belongs anyway).
func (w *Watchdog) advance(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 0; now.Sub(w.curStart) >= w.cfg.Interval; i++ {
		if i >= len(w.slots) {
			// Idle longer than the whole window: clear it in one sweep.
			for j := range w.slots {
				w.slots[j] = sloSlot{lat: w.slots[j].lat}
				w.slots[j].lat.Reset()
			}
			w.curStart = now
			return
		}
		w.cur = (w.cur + 1) % len(w.slots)
		w.slots[w.cur] = sloSlot{lat: w.slots[w.cur].lat}
		w.slots[w.cur].lat.Reset()
		w.curStart = w.curStart.Add(w.cfg.Interval)
	}
}

// Evaluate recomputes the window status, emits breach/recovery effects
// on transitions, and returns the fresh status.
func (w *Watchdog) Evaluate() SLOStatus {
	now := w.now()
	w.advance(now)
	w.mu.Lock()
	var total, errors int64
	w.scratch.Reset()
	for i := range w.slots {
		total += w.slots[i].total
		errors += w.slots[i].errors
		w.scratch.Merge(w.slots[i].lat)
	}
	st := SLOStatus{Requests: total, Errors: errors, P99: w.scratch.Quantile(0.99)}
	if total > 0 {
		st.ErrorRate = float64(errors) / float64(total)
	}
	if total >= int64(w.cfg.MinSamples) {
		if w.cfg.MaxErrorRate > 0 && st.ErrorRate > w.cfg.MaxErrorRate {
			st.Reasons = append(st.Reasons, "error_rate")
		}
		if w.cfg.MaxP99 > 0 && st.P99 > w.cfg.MaxP99.Nanoseconds() {
			st.Reasons = append(st.Reasons, "p99")
		}
	}
	st.Breached = len(st.Reasons) > 0
	transition := st.Breached != w.breached
	w.breached = st.Breached
	w.status = st
	lastID := w.lastReqID
	w.mu.Unlock()

	if transition {
		if st.Breached {
			w.breaches.Inc(0)
			w.tracer.Emit(metrics.EvSLO, fmt.Sprintf("breach%v", st.Reasons), -1, -1, 0, now, 0)
			w.logRecord("slo_breach", now, st, lastID)
		} else {
			w.tracer.Emit(metrics.EvSLO, "recover", -1, -1, 0, now, 0)
			w.logRecord("slo_recover", now, st, lastID)
		}
		w.onTransition(st.Breached)
	}
	return st
}

// Status returns the last evaluated status without re-evaluating (the
// /readyz fast path); a nil watchdog is never breached.
func (w *Watchdog) Status() SLOStatus {
	if w == nil {
		return SLOStatus{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.status
}

// sloRecord is the one-line JSON breach/recovery log schema.
type sloRecord struct {
	Event         string   `json:"event"`
	TS            string   `json:"ts"`
	Reasons       []string `json:"reasons,omitempty"`
	ErrorRate     float64  `json:"error_rate"`
	P99Ms         float64  `json:"p99_ms"`
	WindowMs      float64  `json:"window_ms"`
	Requests      int64    `json:"requests"`
	Errors        int64    `json:"errors"`
	Breaches      int64    `json:"breaches"`
	LastRequestID int64    `json:"last_request_id"`
}

// logRecord writes one structured JSON line describing the transition,
// with enough request-correlated context (window totals, the most recent
// request id) to join against access logs and traces.
func (w *Watchdog) logRecord(event string, now time.Time, st SLOStatus, lastID int64) {
	rec := sloRecord{
		Event:         event,
		TS:            now.UTC().Format(time.RFC3339Nano),
		Reasons:       st.Reasons,
		ErrorRate:     st.ErrorRate,
		P99Ms:         float64(st.P99) / 1e6,
		WindowMs:      float64(w.cfg.Window.Milliseconds()),
		Requests:      st.Requests,
		Errors:        st.Errors,
		Breaches:      w.breaches.Value(),
		LastRequestID: lastID,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	_, _ = w.cfg.Log.Write(b)
}

// gaugeBool is a condition as a gauge reads it: 1 or 0.
func gaugeBool(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}
