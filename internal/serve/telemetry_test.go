package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paratreet"
	"paratreet/internal/metrics"
	"paratreet/internal/serve"
)

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	b := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	return resp, []byte(buf.String())
}

// TestReadyzDrainMidRequest is the liveness/readiness split regression:
// a request is held half-received in its handler (the test owns the rest
// of its body, so no clock decides how long it stays there), drain begins
// mid-request, and /readyz must flip to 503 while /healthz stays 200 and
// the held request still completes successfully.
func TestReadyzDrainMidRequest(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{Batch: serve.BatchConfig{MaxBatch: 64}})
	entered := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query/knn" {
			close(entered)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	resp, body := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain /readyz: %d %s, want 200", resp.StatusCode, body)
	}

	bodyR, bodyW := io.Pipe()
	done := make(chan int, 1)
	go func() {
		r, err := http.Post(ts.URL+"/query/knn", "application/json", bodyR)
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		r.Body.Close()
		done <- r.StatusCode
	}()
	if _, err := io.WriteString(bodyW, `{"pos":[0.5,0.5,0.5],`); err != nil {
		t.Fatal(err)
	}
	<-entered

	srv.BeginDrain()
	resp, body = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain /readyz: %d %s, want 503", resp.StatusCode, body)
	}
	var ready struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || !ready.Draining {
		t.Fatalf("mid-drain readiness body: %s", body)
	}
	resp, _ = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-drain /healthz: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	// BeginDrain does not stop intake: the held request goes through its
	// wave and must succeed, not be rejected. Drain then finds nothing left.
	if _, err := io.WriteString(bodyW, `"k":3}`); err != nil {
		t.Fatal(err)
	}
	bodyW.Close()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("held request finished %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held request never completed")
	}
	srv.Drain()
	if resp, _ = getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain /readyz: %d, want 503", resp.StatusCode)
	}
}

// TestReadinessWithoutObjective checks a server with no SLO objective:
// it builds no watchdog, serves, answers /readyz 200 with serve.ready at
// 1, and reads 0 from BeginDrain on.
func TestReadinessWithoutObjective(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(600))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{Batch: serve.BatchConfig{MaxBatch: 4}})
	defer srv.Drain()
	if w := srv.Watchdog(); w != nil {
		t.Fatal("a server with no objective built a watchdog")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ready := eng.Registry().Gauge(metrics.GServeReady)
	if resp, body := postJSON(t, ts.URL+"/query/knn", `{"pos":[0.5,0.5,0.5],"k":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if resp, body := getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %d %s, want 200", resp.StatusCode, body)
	}
	if v := ready.Value(); v != 1 {
		t.Fatalf("serve.ready %d while serving, want 1", v)
	}
	srv.BeginDrain()
	if v := ready.Value(); v != 0 {
		t.Fatalf("serve.ready %d after BeginDrain, want 0", v)
	}
	if resp, _ := getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after BeginDrain: %d, want 503", resp.StatusCode)
	}
}

// TestReadyzSLOBreach proves an SLO breach (not drain) also drops
// readiness, and the body carries the reason.
func TestReadyzSLOBreach(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{
		Batch: serve.BatchConfig{MaxBatch: 4},
		SLO: serve.SLOConfig{
			Window: time.Minute, Interval: time.Second,
			MaxP99: time.Nanosecond, MinSamples: 1, // every real request breaches
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.URL+"/query/knn", `{"pos":[0.5,0.5,0.5],"k":3}`); resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	srv.Watchdog().Evaluate()
	resp, body := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breached /readyz: %d %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"p99"`) {
		t.Fatalf("breach body missing reason: %s", body)
	}
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("breached /healthz not 200")
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and checks the
// serve telemetry is present in well-formed exposition: counters,
// saturation gauges, the request-latency histogram, and the quantile
// summary.
func TestMetricsEndpoint(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{
		Batch: serve.BatchConfig{MaxBatch: 4},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 8; i++ {
		if resp, body := postJSON(t, ts.URL+"/query/knn", `{"pos":[0.4,0.5,0.6],"k":4}`); resp.StatusCode != 200 {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"serve_requests_total 8",
		"# TYPE serve_request_ns histogram",
		`serve_request_ns_bucket{le="+Inf"} 8`,
		"# TYPE serve_request_ns_summary summary",
		`serve_request_ns_summary{quantile="0.99"}`,
		"# TYPE serve_queue_cap gauge",
		"# TYPE serve_max_waves gauge",
		"serve_max_waves 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestStatsQuantiles checks /stats carries the serve counters, gauges,
// and sketches — each quantiles entry with its power-of-two buckets —
// and no separate histograms key.
func TestStatsQuantiles(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{
		Batch: serve.BatchConfig{MaxBatch: 4},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/query/range", `{"pos":[0.5,0.5,0.5],"radius":0.05}`)
	}
	_, body := getJSON(t, ts.URL+"/stats")
	var stats struct {
		Counters  map[string]int64                  `json:"counters"`
		Gauges    map[string]int64                  `json:"gauges"`
		Quantiles map[string]metrics.SketchSnapshot `json:"quantiles"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("bad /stats JSON: %v\n%s", err, body)
	}
	if stats.Counters[metrics.CServeRequests] != 4 {
		t.Fatalf("counters: %v", stats.Counters)
	}
	q, ok := stats.Quantiles[metrics.HServeRequest]
	if !ok || q.Count != 4 || q.P99 <= 0 || q.P50 > q.P99 {
		t.Fatalf("request quantiles wrong: %+v (present %v)", q, ok)
	}
	var inBuckets int64
	for _, b := range q.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != q.Count {
		t.Fatalf("request buckets %+v sum to %d, want %d", q.Buckets, inBuckets, q.Count)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["histograms"]; ok {
		t.Fatalf("/stats still has a histograms key:\n%s", body)
	}
	if _, ok := stats.Gauges[metrics.GServeMaxWaves]; !ok {
		t.Fatalf("gauges missing max waves: %v", stats.Gauges)
	}
}

// TestReadyzOmitsSLOWithoutObjective: a server with no objective keeps no
// SLO window, so its /readyz body has no "slo" object — an all-zero one
// would read as a window that saw no request — while a server with an
// objective reports its window.
func TestReadyzOmitsSLOWithoutObjective(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(600))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, c := range []struct {
		name string
		slo  serve.SLOConfig
		want bool
	}{
		{"no objective", serve.SLOConfig{}, false},
		{"p99 objective", serve.SLOConfig{MaxP99: time.Hour}, true},
	} {
		srv := serve.NewServer(eng, serve.ServerConfig{Batch: serve.BatchConfig{MaxBatch: 4}, SLO: c.slo})
		ts := httptest.NewServer(srv.Handler())
		if resp, body := postJSON(t, ts.URL+"/query/knn", `{"pos":[0.5,0.5,0.5],"k":3}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query: %d %s", c.name, resp.StatusCode, body)
		}
		resp, body := getJSON(t, ts.URL+"/readyz")
		var out map[string]json.RawMessage
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: /readyz body %s: %v", c.name, body, err)
		}
		if _, has := out["slo"]; resp.StatusCode != http.StatusOK || has != c.want {
			t.Fatalf("%s: /readyz %d %s; want 200 with \"slo\" %v", c.name, resp.StatusCode, body, c.want)
		}
		ts.Close()
		srv.Drain()
	}
}
