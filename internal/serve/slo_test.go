package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paratreet"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/vec"
)

// sloClock is a manual clock for driving the watchdog deterministically.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newSLOClock() *sloClock                { return &sloClock{t: time.Unix(1000, 0)} }
func withClock(w *Watchdog, c *sloClock) *Watchdog {
	w.now = c.now
	w.curStart = c.t
	return w
}

// TestWatchdogLatencyBreach drives the p99 objective over and back under
// threshold and checks the transition effects: breach counter, ready
// gauge, EvSLO trace instants, and one-line JSON logs.
func TestWatchdogLatencyBreach(t *testing.T) {
	reg := metrics.NewRegistry(metrics.Options{TraceCapacity: 64})
	var log bytes.Buffer
	clk := newSLOClock()
	w := withClock(NewWatchdog(SLOConfig{
		Window:     4 * time.Second,
		Interval:   time.Second,
		MaxP99:     time.Millisecond,
		MinSamples: 10,
		Registry:   reg,
		Log:        &log,
	}), clk)

	ready := reg.Gauge(metrics.GServeReady)
	if ready.Value() != 1 {
		t.Fatalf("initial ready gauge %d, want 1", ready.Value())
	}

	// Healthy traffic: well under the objective.
	for i := 0; i < 50; i++ {
		w.Record(int64(i), 100*time.Microsecond, false)
	}
	st := w.Evaluate()
	if st.Breached {
		t.Fatalf("healthy window breached: %+v", st)
	}

	// Slow traffic pushes p99 over 1ms.
	for i := 0; i < 50; i++ {
		w.Record(int64(100+i), 10*time.Millisecond, false)
	}
	st = w.Evaluate()
	if !st.Breached || len(st.Reasons) != 1 || st.Reasons[0] != "p99" {
		t.Fatalf("slow window not breached on p99: %+v", st)
	}
	if got := reg.Counter(metrics.CServeSLOBreaches).Value(); got != 1 {
		t.Fatalf("breach counter %d, want 1", got)
	}
	if ready.Value() != 0 {
		t.Fatalf("ready gauge %d after breach, want 0", ready.Value())
	}
	// Re-evaluating while still breached must not double-count.
	w.Evaluate()
	if got := reg.Counter(metrics.CServeSLOBreaches).Value(); got != 1 {
		t.Fatalf("breach counter %d after steady state, want 1", got)
	}

	// The window rolls past the slow slots: recovery.
	clk.advance(6 * time.Second)
	for i := 0; i < 20; i++ {
		w.Record(int64(200+i), 50*time.Microsecond, false)
	}
	st = w.Evaluate()
	if st.Breached {
		t.Fatalf("rolled window still breached: %+v", st)
	}
	if ready.Value() != 1 {
		t.Fatalf("ready gauge %d after recovery, want 1", ready.Value())
	}

	// Structured logs: one breach line, one recovery line, each valid
	// one-line JSON with correlated context.
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2:\n%s", len(lines), log.String())
	}
	var rec struct {
		Event         string   `json:"event"`
		Reasons       []string `json:"reasons"`
		P99Ms         float64  `json:"p99_ms"`
		Requests      int64    `json:"requests"`
		LastRequestID int64    `json:"last_request_id"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("breach line not JSON: %v\n%s", err, lines[0])
	}
	if rec.Event != "slo_breach" || len(rec.Reasons) != 1 || rec.Reasons[0] != "p99" ||
		rec.P99Ms < 1 || rec.Requests != 100 || rec.LastRequestID != 149 {
		t.Fatalf("breach record wrong: %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("recovery line not JSON: %v", err)
	}
	if rec.Event != "slo_recover" {
		t.Fatalf("second record %q, want slo_recover", rec.Event)
	}

	// Trace instants: a breach and a recovery EvSLO span.
	var kinds []string
	for _, sp := range reg.Tracer().Spans() {
		if sp.Kind == metrics.EvSLO {
			kinds = append(kinds, sp.Name)
		}
	}
	if len(kinds) != 2 || !strings.HasPrefix(kinds[0], "breach") || kinds[1] != "recover" {
		t.Fatalf("EvSLO spans = %v", kinds)
	}
}

// TestWatchdogErrorRateBreach drives the error-rate objective.
func TestWatchdogErrorRateBreach(t *testing.T) {
	clk := newSLOClock()
	w := withClock(NewWatchdog(SLOConfig{
		Window: 4 * time.Second, Interval: time.Second,
		MaxErrorRate: 0.10, MinSamples: 10, Log: &bytes.Buffer{},
	}), clk)
	for i := 0; i < 40; i++ {
		w.Record(int64(i), time.Millisecond, i%2 == 0) // 50% errors
	}
	st := w.Evaluate()
	if !st.Breached || st.Reasons[0] != "error_rate" {
		t.Fatalf("50%% errors not breached: %+v", st)
	}
	if st.ErrorRate != 0.5 || st.Errors != 20 {
		t.Fatalf("error accounting wrong: %+v", st)
	}
}

// TestWatchdogMinSamples proves a handful of terrible requests on an
// idle service cannot flip readiness.
func TestWatchdogMinSamples(t *testing.T) {
	clk := newSLOClock()
	w := withClock(NewWatchdog(SLOConfig{
		Window: 4 * time.Second, Interval: time.Second,
		MaxP99: time.Microsecond, MaxErrorRate: 0.01,
		MinSamples: 20, Log: &bytes.Buffer{},
	}), clk)
	for i := 0; i < 19; i++ {
		w.Record(int64(i), time.Second, true) // all slow, all failed
	}
	if st := w.Evaluate(); st.Breached {
		t.Fatalf("breached below MinSamples: %+v", st)
	}
	w.Record(19, time.Second, true)
	if st := w.Evaluate(); !st.Breached {
		t.Fatal("not breached at MinSamples")
	}
}

// TestWatchdogWindowRoll checks slot rotation: observations older than
// the window stop contributing, and an idle gap longer than the whole
// window clears it in one sweep.
func TestWatchdogWindowRoll(t *testing.T) {
	clk := newSLOClock()
	w := withClock(NewWatchdog(SLOConfig{
		Window: 3 * time.Second, Interval: time.Second,
		MaxErrorRate: 0.5, MinSamples: 1, Log: &bytes.Buffer{},
	}), clk)
	w.Record(1, time.Millisecond, true)
	if st := w.Evaluate(); !st.Breached {
		t.Fatal("single error not breached")
	}
	// One slot per second: after 2s the error is still in-window.
	clk.advance(2 * time.Second)
	if st := w.Evaluate(); st.Requests != 1 {
		t.Fatalf("window lost the request early: %+v", st)
	}
	// Past the window it is gone and (with no traffic) the breach clears.
	clk.advance(2 * time.Second)
	st := w.Evaluate()
	if st.Requests != 0 || st.Breached {
		t.Fatalf("stale request survived the window: %+v", st)
	}
	// Idle for much longer than the window, then fresh traffic: only the
	// fresh slot counts.
	clk.advance(time.Hour)
	w.Record(2, time.Millisecond, false)
	if st := w.Evaluate(); st.Requests != 1 || st.Errors != 0 {
		t.Fatalf("idle sweep kept stale state: %+v", st)
	}
}

// TestWatchdogNilAndInactive checks the disabled paths: a server with no
// objective builds no watchdog, so Status and Stop on the nil watchdog
// are no-ops; a watchdog built without an objective never breaches, and
// Stop is idempotent.
func TestWatchdogNilAndInactive(t *testing.T) {
	var nilW *Watchdog
	if st := nilW.Status(); st.Breached || st.Requests != 0 {
		t.Fatalf("nil watchdog status %+v", st)
	}
	nilW.Stop()

	w := NewWatchdog(SLOConfig{Log: &bytes.Buffer{}})
	w.Start()
	w.Record(1, time.Millisecond, true)
	if st := w.Evaluate(); st.Breached || st.Requests != 1 {
		t.Fatalf("inactive watchdog: %+v", st)
	}
	w.Stop()
	w.Stop() // idempotent
}

// TestReadyGaugeDrainOutlastsRecovery: in a server, serve.ready has one
// writer, which sets it to not draining and not breached. A server that
// breaches its objective, begins to drain, and then recovers must keep
// the gauge at 0 through the drain's grace window, as /readyz keeps
// answering 503; a recovery used to set it back to 1.
func TestReadyGaugeDrainOutlastsRecovery(t *testing.T) {
	reg := metrics.NewRegistry(metrics.Options{})
	eng, err := NewEngine(paratreet.Config{
		Procs: 1, WorkersPerProc: 1, Tree: paratreet.TreeOct, BucketSize: 8, Metrics: reg,
	}, particle.NewUniform(200, 1, vec.UnitBox()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// One slot an hour long: the ticker never evaluates during the test,
	// and the fake clock rolls the window at will.
	srv := NewServer(eng, ServerConfig{SLO: SLOConfig{
		Window: time.Hour, Interval: time.Hour, MaxP99: time.Millisecond, MinSamples: 1, Log: &bytes.Buffer{},
	}})
	defer srv.Drain()
	clk := newSLOClock()
	w := withClock(srv.Watchdog(), clk)
	ready := reg.Gauge(metrics.GServeReady)
	readyz := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if v, code := ready.Value(), readyz(); v != 1 || code != http.StatusOK {
		t.Fatalf("serving: serve.ready %d, /readyz %d; want 1 and 200", v, code)
	}

	w.Record(1, time.Second, false)
	if st := w.Evaluate(); !st.Breached {
		t.Fatalf("a 1 s request against a 1 ms p99 objective did not breach: %+v", st)
	}
	if v := ready.Value(); v != 0 {
		t.Fatalf("breached: serve.ready %d, want 0", v)
	}
	srv.BeginDrain()
	clk.advance(3 * time.Hour)
	w.Record(2, time.Microsecond, false)
	if st := w.Evaluate(); st.Breached {
		t.Fatalf("a fresh window of one fast request still breached: %+v", st)
	}
	if v, code := ready.Value(), readyz(); v != 0 || code != http.StatusServiceUnavailable {
		t.Fatalf("recovered while draining: serve.ready %d, /readyz %d; want 0 and 503", v, code)
	}
}
