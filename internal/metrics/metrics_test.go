package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines across
// every shard hint and checks the exact total (run under -race this also
// exercises the sharded cells for data races).
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry(Options{Shards: 4})
	c := reg.Counter("test.concurrent")
	const goroutines = 16
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc(g)
			}
		}(g)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("Value() = %d, want %d", got, goroutines*perG)
	}
	c.Add(3, -5)
	if got := c.Value(); got != goroutines*perG-5 {
		t.Fatalf("after Add(-5): %d, want %d", got, goroutines*perG-5)
	}
}

func TestCounterSameNameSameCounter(t *testing.T) {
	reg := NewRegistry(Options{})
	a := reg.Counter("x")
	b := reg.Counter("x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	if reg.Counter("y") == a {
		t.Fatal("distinct names returned the same counter")
	}
	if sk := reg.Sketch("x"); sk == nil || sk != reg.Sketch("x") {
		t.Fatal("sketch identity broken")
	}
}

// TestNilDisabled checks the whole nil-handle surface: every call must be
// a safe no-op, which is what makes the disabled hot path one nil check.
func TestNilDisabled(t *testing.T) {
	var reg *Registry
	if reg.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := reg.Counter("a")
	c.Inc(0)
	c.Add(1, 10)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	sk := reg.Sketch("b")
	sk.Observe(42)
	if s := sk.Snapshot(); s.Count != 0 {
		t.Fatal("nil sketch recorded")
	}
	tr := reg.Tracer()
	tr.Emit(EvTask, "x", 0, 0, 0, time.Now(), time.Millisecond)
	if tr.NextFlow() != 0 {
		t.Fatal("nil tracer allocated a flow id")
	}
	if tr.Spans() != nil || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded")
	}
	reg.Reset()
	if reg.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
}

// TestHistogram checks the sketch snapshot's power-of-two histogram
// view: every value lands in the bucket Le = 2^bits.Len64(v) - 1, the
// buckets partition Count, and the aggregates are exact.
func TestHistogram(t *testing.T) {
	reg := NewRegistry(Options{})
	sk := reg.Sketch("h")
	vals := []int64{0, 1, 2, 3, 4, 7, 8, 127, 128, 1000, 1 << 40}
	var sum int64
	for _, v := range vals {
		sk.Observe(v)
		sum += v
	}
	s := sk.Snapshot()
	if s.Count != int64(len(vals)) || s.Sum != sum {
		t.Fatalf("count/sum = %d/%d, want %d/%d", s.Count, s.Sum, len(vals), sum)
	}
	if s.Min != 0 || s.Max != 1<<40 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, int64(1)<<40)
	}
	if got, want := s.Mean(), float64(sum)/float64(len(vals)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	want := map[int64]int64{}
	for _, v := range vals {
		want[int64(1)<<bits.Len64(uint64(v))-1]++
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count %d, want %d (%+v)", b.Le, b.Count, want[b.Le], s.Buckets)
		}
	}
}

// TestHistogramConcurrent checks exact aggregates and a bucket view that
// partitions Count after many concurrent observers.
func TestHistogramConcurrent(t *testing.T) {
	sk := NewSketch()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= perG; i++ {
				sk.Observe(int64(i))
			}
		}(g)
	}
	wg.Wait()
	s := sk.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Min != 1 || s.Max != perG {
		t.Fatalf("min/max = %d/%d, want 1/%d", s.Min, s.Max, perG)
	}
	if want := int64(goroutines) * perG * (perG + 1) / 2; s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("buckets sum to %d, want %d", total, s.Count)
	}
}

func TestTracerRing(t *testing.T) {
	reg := NewRegistry(Options{TraceCapacity: 4})
	tr := reg.Tracer()
	if tr == nil {
		t.Fatal("tracer missing despite TraceCapacity")
	}
	epoch := tr.epoch
	for i := 0; i < 6; i++ {
		tr.Emit(EvTask, "s", 0, i, 0, epoch.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len(spans) = %d, want 4 (ring capacity)", len(spans))
	}
	// Oldest-first: workers 2,3,4,5 survive.
	for i, s := range spans {
		if s.Worker != i+2 {
			t.Fatalf("span %d worker = %d, want %d (oldest-first order)", i, s.Worker, i+2)
		}
	}
	if tr.Total() != 6 || tr.Dropped() != 2 {
		t.Fatalf("total/dropped = %d/%d, want 6/2", tr.Total(), tr.Dropped())
	}
	reg.Reset()
	if len(tr.Spans()) != 0 || tr.Total() != 0 {
		t.Fatal("reset did not clear the ring")
	}
}

func TestNoTracerByDefault(t *testing.T) {
	reg := NewRegistry(Options{})
	if reg.Tracer() != nil {
		t.Fatal("tracing on without TraceCapacity")
	}
}

func TestRegistrySnapshotAndReset(t *testing.T) {
	reg := NewRegistry(Options{TraceCapacity: 8})
	reg.Counter("a").Add(0, 7)
	reg.Counter("b").Inc(1)
	reg.Sketch("h").Observe(100)
	reg.Tracer().Emit(EvFill, "span", 1, 2, 3, time.Now(), time.Microsecond)

	s := reg.Snapshot()
	if s.Counter("a") != 7 || s.Counter("b") != 1 || s.Counter("absent") != 0 {
		t.Fatalf("counters wrong: %+v", s.Counters)
	}
	if s.Sketches["h"].Count != 1 {
		t.Fatalf("sketch missing: %+v", s.Sketches)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "span" ||
		s.Spans[0].Kind != EvFill || s.Spans[0].Flow != 3 {
		t.Fatalf("spans wrong: %+v", s.Spans)
	}

	reg.Reset()
	s2 := reg.Snapshot()
	if s2.Counter("a") != 0 || s2.Sketches["h"].Count != 0 || len(s2.Spans) != 0 {
		t.Fatalf("reset left residue: %+v", s2)
	}
	// Handles held before Reset must stay live.
	reg.Counter("a").Inc(0)
	if reg.Snapshot().Counter("a") != 1 {
		t.Fatal("counter handle dead after Reset")
	}
}

// TestSnapshotJSONRoundTrip checks the export schema survives a JSON
// round-trip with all sections populated.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := &Snapshot{
		Label:    "test",
		Config:   map[string]string{"tree": "oct"},
		Counters: map[string]int64{"cache.hits": 5},
		Sketches: map[string]SketchSnapshot{
			"h": {Count: 2, Sum: 10, Min: 3, Max: 7, P50: 7, Buckets: []Bucket{{Le: 3, Count: 1}, {Le: 7, Count: 1}}},
		},
		PhasesNs: map[string]int64{"idle": 123},
		Workers:  []WorkerUtil{{Proc: 0, Worker: 1, BusyNs: 75, IdleNs: 25, Tasks: 4}},
		Comm:     []CommEdge{{From: 0, To: 1, Messages: 2, Bytes: 100}},
		Spans:    []Span{{Name: "x", Kind: EvFetch, Proc: 0, Worker: 1, Flow: 9, StartNs: 1, DurNs: 2}},
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("cache.hits") != 5 || back.Workers[0].Tasks != 4 ||
		back.Comm[0].Bytes != 100 || back.Spans[0].DurNs != 2 ||
		back.Spans[0].Kind != EvFetch || back.Spans[0].Flow != 9 ||
		back.PhasesNs["idle"] != 123 || back.Sketches["h"].Sum != 10 || back.Sketches["h"].Buckets[1].Le != 7 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if u := back.Workers[0].Utilization(); math.Abs(u-0.75) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.75", u)
	}
}

func TestSnapshotCSV(t *testing.T) {
	s := &Snapshot{
		Counters: map[string]int64{"b": 2, "a": 1},
		Sketches: map[string]SketchSnapshot{"h": {Count: 2, Sum: 10, P99: 7}},
		PhasesNs: map[string]int64{"idle": 9},
		Workers:  []WorkerUtil{{Proc: 0, Worker: 0, BusyNs: 1, IdleNs: 1}},
		Comm:     []CommEdge{{From: 0, To: 1, Bytes: 7}},
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"kind,name,value\n",
		"counter,a,1\n", "counter,b,2\n",
		"hist_count,h,2\n", "hist_mean,h,5.0\n", "quantile_p99,h,7\n",
		"phase_ns,idle,9\n",
		"worker_util,p0w0,0.5000\n",
		"comm_bytes,0->1,7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
	// Counters must appear sorted.
	if strings.Index(out, "counter,a,") > strings.Index(out, "counter,b,") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

func TestCounterShardRounding(t *testing.T) {
	c := newCounter(5) // rounds to 8
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	// Negative and huge shard hints must mask safely.
	c.Inc(-1)
	c.Inc(1 << 30)
	if c.Value() != 2 {
		t.Fatalf("value = %d, want 2", c.Value())
	}
}
