package metrics

import (
	"runtime"
	rtm "runtime/metrics"
	"testing"
	"time"
)

// TestHealthSampleOnce checks one sample populates the runtime gauges
// with plausible values: a running Go process always has a positive
// heap, total memory, and at least this goroutine.
func TestHealthSampleOnce(t *testing.T) {
	// The runtime's memory-class accounting can read zero until the first
	// GC cycle flushes it; force one so heap/objects is live.
	runtime.GC()
	reg := NewRegistry(Options{})
	h := StartHealth(reg, HealthConfig{Interval: time.Hour})
	defer h.Stop()
	snap := reg.Snapshot()
	for _, name := range []string{GGoHeapBytes, GGoMemTotalBytes, GGoGoroutines} {
		if snap.Gauges[name] <= 0 {
			t.Errorf("gauge %s = %d, want > 0", name, snap.Gauges[name])
		}
	}
	// GC pause / sched latency p99 gauges exist (possibly zero on a fresh
	// process that has not GC'd).
	for _, name := range []string{GGoGCCycles, GGoGCPauseP99, GGoSchedLatencyP99} {
		if v, ok := snap.Gauges[name]; !ok || v < 0 {
			t.Errorf("gauge %s = %d (present %v), want >= 0", name, v, ok)
		}
	}
}

// TestHealthNilRegistry checks the disabled path: nil registry means nil
// collector, and every method is a safe no-op.
func TestHealthNilRegistry(t *testing.T) {
	h := StartHealth(nil, HealthConfig{})
	if h != nil {
		t.Fatal("nil registry must return a nil collector")
	}
	h.SampleOnce()
	h.Stop()
}

// TestHealthTicker checks the collector goroutine samples on its own and
// Stop halts it cleanly: a GC cycle run after the initial sample reaches
// the GC-cycle gauge only through a tick.
func TestHealthTicker(t *testing.T) {
	reg := NewRegistry(Options{})
	h := StartHealth(reg, HealthConfig{Interval: time.Millisecond})
	cycles := reg.Gauge(GGoGCCycles)
	before := cycles.Value()
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); cycles.Value() <= before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("collector never ticked")
		}
	}
	h.Stop()
}

// TestDeltaP99 exercises the cumulative-histogram delta logic directly:
// a second sample whose counts grew in a high bucket must report that
// bucket's range, not the lifetime distribution's.
func TestDeltaP99(t *testing.T) {
	reg := NewRegistry(Options{})
	h := StartHealth(reg, HealthConfig{Interval: time.Hour})
	defer h.Stop()
	buckets := []float64{0, 0.001, 0.010, 0.100}
	fh := &rtm.Float64Histogram{Counts: []uint64{1000, 0, 0}, Buckets: buckets}
	if p99 := h.deltaP99Ns("test", fh); p99 > 1_000_000 {
		t.Fatalf("first sample p99 = %dns, want <= 1ms-bucket midpoint", p99)
	}
	// Interval delta: 10 new events all in the [10ms, 100ms) bucket.
	fh = &rtm.Float64Histogram{Counts: []uint64{1000, 0, 10}, Buckets: buckets}
	p99 := h.deltaP99Ns("test", fh)
	if p99 < 10_000_000 || p99 > 100_000_000 {
		t.Fatalf("delta p99 = %dns, want within [10ms, 100ms)", p99)
	}
	// Idle interval: no growth falls back to the lifetime distribution.
	fh = &rtm.Float64Histogram{Counts: []uint64{1000, 0, 10}, Buckets: buckets}
	p99 = h.deltaP99Ns("test", fh)
	if p99 > 1_000_000 {
		t.Fatalf("idle-interval p99 = %dns, want lifetime (<= 1ms bucket)", p99)
	}
}
