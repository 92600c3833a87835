package metrics

import (
	rtm "runtime/metrics"
	"time"
)

// healthSamples are the runtime/metrics series the collector reads.
// Missing series (older/newer Go runtimes) degrade to zero gauges rather
// than failing: Read reports KindBad for unknown names.
const (
	smHeapBytes  = "/memory/classes/heap/objects:bytes"
	smTotalBytes = "/memory/classes/total:bytes"
	smGoroutines = "/sched/goroutines:goroutines"
	smGCCycles   = "/gc/cycles/total:gc-cycles"
	smGCPauses   = "/gc/pauses:seconds"
	smSchedLat   = "/sched/latencies:seconds"
)

// HealthConfig parameterizes the runtime-health collector.
type HealthConfig struct {
	// Interval is the sampling cadence. Default 1s.
	Interval time.Duration
}

// HealthCollector samples Go runtime health — live heap, total memory,
// goroutine count, GC cycles, and the interval-local p99 of GC pause and
// scheduling latency — into a Registry's gauges on a ticker. It is the
// saturation/health half of the telemetry plane: counters and sketches
// say what the service did, these gauges say what state the process is
// in while doing it. Stop the collector before discarding the registry.
type HealthCollector struct {
	reg   *Registry
	cfg   HealthConfig
	stop  chan struct{}
	done  chan struct{}
	prevP map[string][]uint64 // previous cumulative histogram counts, by series

	heapBytes  *Gauge
	totalBytes *Gauge
	goroutines *Gauge
	gcCycles   *Gauge
	gcPauseP99 *Gauge
	schedP99   *Gauge
}

// StartHealth begins sampling runtime health into reg's gauges and
// returns the running collector (nil when reg is nil: the disabled
// metrics layer disables health sampling with it).
func StartHealth(reg *Registry, cfg HealthConfig) *HealthCollector {
	if reg == nil {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	h := &HealthCollector{
		reg:        reg,
		cfg:        cfg,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		prevP:      make(map[string][]uint64),
		heapBytes:  reg.Gauge(GGoHeapBytes),
		totalBytes: reg.Gauge(GGoMemTotalBytes),
		goroutines: reg.Gauge(GGoGoroutines),
		gcCycles:   reg.Gauge(GGoGCCycles),
		gcPauseP99: reg.Gauge(GGoGCPauseP99),
		schedP99:   reg.Gauge(GGoSchedLatencyP99),
	}
	h.SampleOnce()
	go h.loop(h.stop)
	return h
}

// Stop halts sampling and waits for the collector goroutine to exit.
// Safe on a nil collector.
func (h *HealthCollector) Stop() {
	if h == nil {
		return
	}
	close(h.stop)
	<-h.done
}

func (h *HealthCollector) loop(stop <-chan struct{}) {
	defer close(h.done)
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.SampleOnce()
		}
	}
}

// SampleOnce takes one sample immediately (tests, and the initial sample
// so gauges are live before the first tick). Safe on a nil collector.
func (h *HealthCollector) SampleOnce() {
	if h == nil {
		return
	}
	samples := []rtm.Sample{
		{Name: smHeapBytes},
		{Name: smTotalBytes},
		{Name: smGoroutines},
		{Name: smGCCycles},
		{Name: smGCPauses},
		{Name: smSchedLat},
	}
	rtm.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case rtm.KindUint64:
			v := int64(s.Value.Uint64())
			switch s.Name {
			case smHeapBytes:
				h.heapBytes.Set(v)
			case smTotalBytes:
				h.totalBytes.Set(v)
			case smGoroutines:
				h.goroutines.Set(v)
			case smGCCycles:
				h.gcCycles.Set(v)
			}
		case rtm.KindFloat64Histogram:
			p99 := h.deltaP99Ns(s.Name, s.Value.Float64Histogram())
			switch s.Name {
			case smGCPauses:
				h.gcPauseP99.Set(p99)
			case smSchedLat:
				h.schedP99.Set(p99)
			}
		}
	}
}

// deltaP99Ns computes the p99 (in nanoseconds) of a cumulative
// runtime/metrics float64 histogram over the interval since the previous
// sample: runtime histograms only ever grow, so the difference of
// cumulative counts is the interval-local distribution. The first sample
// (or an interval with no events) reports the cumulative p99, which keeps
// the gauge meaningful on startup and idle.
func (h *HealthCollector) deltaP99Ns(name string, fh *rtm.Float64Histogram) int64 {
	if fh == nil || len(fh.Counts) == 0 {
		return 0
	}
	cur := fh.Counts
	prev := h.prevP[name]
	counts := make([]uint64, len(cur))
	var total uint64
	for i := range cur {
		c := cur[i]
		if prev != nil && i < len(prev) && prev[i] <= c {
			c -= prev[i]
		}
		counts[i] = c
		total += c
	}
	h.prevP[name] = append([]uint64(nil), cur...)
	if total == 0 {
		// Idle interval: fall back to the lifetime distribution.
		counts = cur
		for _, c := range cur {
			total += c
		}
		if total == 0 {
			return 0
		}
	}
	rank := uint64(float64(total) * 0.99)
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > rank {
			// Buckets[i] and Buckets[i+1] bound bucket i's values; the
			// outermost buckets can be infinite.
			lo, hi := fh.Buckets[i], fh.Buckets[i+1]
			mid := (lo + hi) / 2
			if mid != mid || mid > 1e18 || mid < -1e18 { // NaN or +/-Inf bound
				if lo > -1e18 && lo < 1e18 {
					mid = lo
				} else {
					mid = hi
				}
			}
			return int64(mid * 1e9)
		}
	}
	return 0
}
