package promexpo

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"paratreet/internal/metrics"
)

func fixtureSnapshot() *metrics.Snapshot {
	reg := metrics.NewRegistry(metrics.Options{})
	reg.Counter("serve.requests").Inc(0)
	reg.Counter("serve.requests").Inc(0)
	reg.Gauge("serve.queue_depth").Set(5)
	sk := reg.Sketch("serve.wave_ns")
	for _, v := range []int64{1, 10, 100, 1000, 100000} {
		sk.Observe(v)
	}
	reg.Sketch("serve.request_ns").Observe(12345)
	return reg.Snapshot()
}

// TestWriteWellFormed locks the exposition grammar: HELP/TYPE pairs
// precede every family, histogram buckets are cumulative with ascending
// le and a +Inf terminal equal to _count, and every sketch's summary
// family carries the quantile labels.
func TestWriteWellFormed(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP serve_requests_total",
		"# TYPE serve_requests_total counter",
		"serve_requests_total 2",
		"# TYPE serve_queue_depth gauge",
		"serve_queue_depth 5",
		"# TYPE serve_wave_ns histogram",
		`serve_wave_ns_bucket{le="+Inf"} 5`,
		"serve_wave_ns_count 5",
		"# TYPE serve_wave_ns_summary summary",
		`serve_wave_ns_summary{quantile="0.99"} 99840`,
		"serve_wave_ns_summary_count 5",
		"# TYPE serve_request_ns histogram",
		"# TYPE serve_request_ns_summary summary",
		`serve_request_ns_summary{quantile="0.5"} 12345`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Histogram buckets: le strictly ascending, counts non-decreasing,
	// +Inf equals _count.
	bucketRe := regexp.MustCompile(`^serve_wave_ns_bucket\{le="([^"]+)"\} (\d+)$`)
	prevLe, prevCum := int64(-1), int64(-1)
	var infCum int64
	for _, line := range strings.Split(out, "\n") {
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cum, _ := strconv.ParseInt(m[2], 10, 64)
		if cum < prevCum {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prevCum = cum
		if m[1] == "+Inf" {
			infCum = cum
			continue
		}
		le, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Errorf("non-integer le %q", m[1])
			continue
		}
		if le <= prevLe {
			t.Errorf("le not ascending at %q", line)
		}
		prevLe = le
	}
	if infCum != 5 {
		t.Errorf("+Inf bucket = %d, want 5", infCum)
	}

	// Every non-comment line is "name value" or "name{labels} value".
	lineRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestWriteGolden pins the exposition of fixed non-negative streams
// byte for byte. testdata/golden.prom was printed by the previous
// layout, where each series was observed into a power-of-two histogram
// and a sketch of the same name: one sketch now yields the identical
// _bucket, _sum, _count, and _summary lines. The streams cover 0, 1, the
// exact-range edge 127/128, 2^20±1, and 2^40.
func TestWriteGolden(t *testing.T) {
	reg := metrics.NewRegistry(metrics.Options{})
	for name, vs := range map[string][]int64{
		"serve.wave_ns": {0, 1, 2, 3, 63, 64, 127, 128, 129, 255, 256, 1000, 4095,
			1<<20 - 1, 1 << 20, 1<<20 + 1, 123456789, 1 << 40},
		"rt.task_ns": {5, 5, 5, 700, 7000, 70000, 700000, 7000000},
	} {
		sk := reg.Sketch(name)
		for _, v := range vs {
			sk.Observe(v)
		}
	}
	var b strings.Builder
	if err := Write(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("exposition drifted from testdata/golden.prom:\n%s", got)
	}
}

// TestTraceDropsScraped checks a wrapped tracer ring is visible on a
// scrape: capacity 4, 10 emits, 6 overwritten.
func TestTraceDropsScraped(t *testing.T) {
	reg := metrics.NewRegistry(metrics.Options{TraceCapacity: 4})
	for i := 0; i < 10; i++ {
		reg.Tracer().Emit(metrics.EvTask, "t", 0, 0, 0, time.Now(), time.Microsecond)
	}
	var b strings.Builder
	if err := Write(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ntrace_spans_dropped_total 6\n") {
		t.Fatalf("scrape missing trace_spans_dropped_total 6:\n%s", b.String())
	}
}

// TestWriteDeterministic checks byte-stability: the same snapshot always
// encodes to the same bytes (families sorted).
func TestWriteDeterministic(t *testing.T) {
	snap := fixtureSnapshot()
	var a, b strings.Builder
	if err := Write(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, snap); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("encoding is not deterministic")
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.queue_wait_ns": "serve_queue_wait_ns",
		"go.heap_bytes":       "go_heap_bytes",
		"9lives":              "_lives",
		"a-b c":               "a_b_c",
		"":                    "_",
		"ok_name:x":           "ok_name:x",
	} {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHandler checks the HTTP wrapper: content type, body, and the 503
// no-registry path.
func TestHandler(t *testing.T) {
	snap := fixtureSnapshot()
	h := Handler(func() *metrics.Snapshot { return snap })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "serve_requests_total 2") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}

	down := Handler(func() *metrics.Snapshot { return nil })
	rec = httptest.NewRecorder()
	down.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 503 {
		t.Fatalf("nil snapshot status %d, want 503", rec.Code)
	}
}
