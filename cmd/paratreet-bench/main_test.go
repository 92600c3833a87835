package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"paratreet"
	"paratreet/internal/experiments"
	"paratreet/internal/metrics"
	"paratreet/internal/trace"
)

// TestMetricsEmission is the end-to-end acceptance test for the --metrics
// flag path: run the fig3 cache-policy experiment exactly as main() wires
// it, then check the emitted JSON carries cache hit/miss counts,
// open/prune decisions, and per-worker utilization for every run.
func TestMetricsEmission(t *testing.T) {
	opts := experiments.Quick()
	opts.N = 3000
	opts.Iters = 1
	opts.Workers = []int{4} // two simulated procs, so remote fetches occur
	opts.Metrics = &experiments.MetricsCollector{TraceCapacity: 256}

	var out bytes.Buffer
	if err := run(&out, "fig3", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 3") {
		t.Errorf("experiment text output missing: %q", out.String())
	}

	var jbuf bytes.Buffer
	if err := metrics.WriteSnapshots(&jbuf, opts.Metrics.Snapshots()); err != nil {
		t.Fatal(err)
	}
	var snaps []*paratreet.MetricsSnapshot
	if err := json.Unmarshal(jbuf.Bytes(), &snaps); err != nil {
		t.Fatalf("metrics output is not a JSON snapshot array: %v\n%s", err, jbuf.String())
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots collected")
	}
	for _, s := range snaps {
		if s.Label == "" || !strings.HasPrefix(s.Label, "fig3/") {
			t.Errorf("snapshot label %q, want fig3/<policy>/w<N>", s.Label)
		}
		if s.Config["cache_policy"] == "" || s.Config["particles"] == "" {
			t.Errorf("%s: config section incomplete: %+v", s.Label, s.Config)
		}
		for _, name := range []string{
			"cache.hits", "cache.misses", "rt.node_requests",
			"traverse.opens", "traverse.prunes", "traverse.visits",
		} {
			if s.Counter(name) == 0 {
				t.Errorf("%s: counter %s = 0, want nonzero", s.Label, name)
			}
		}
		if len(s.Workers) == 0 {
			t.Errorf("%s: no per-worker utilization", s.Label)
		}
		var busy int64
		for _, w := range s.Workers {
			busy += w.BusyNs
			if u := w.Utilization(); u < 0 || u > 1 {
				t.Errorf("%s: p%dw%d utilization %g out of [0,1]", s.Label, w.Proc, w.Worker, u)
			}
		}
		if busy == 0 {
			t.Errorf("%s: all workers report zero busy time", s.Label)
		}
		if len(s.Spans) == 0 {
			t.Errorf("%s: tracing requested but no spans recorded", s.Label)
		}
	}
	// One snapshot per (policy, worker-count) cell: WaitFree, Sequential,
	// XWrite swept over each worker count.
	if want := 3 * len(opts.Workers); len(snaps) != want {
		t.Errorf("collected %d snapshots, want %d (3 policies x %d worker counts)",
			len(snaps), want, len(opts.Workers))
	}
}

// TestKNNTracePipeline is the end-to-end acceptance test for the
// timeline path: run the knn experiment with tracing through the command
// line, and feed the metrics file it writes to the analyzer.
func TestKNNTracePipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	args := []string{"knn", "-quick", "-n", "3000", "-iters", "1", "-workers", "4", "-trace", "65536", "-metrics-out", path}
	if err := cli(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kNN SPH density") {
		t.Errorf("experiment text output missing: %q", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*metrics.Snapshot
	if err := json.Unmarshal(data, &snaps); err != nil {
		t.Fatalf("metrics file is not a snapshot array: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Label != "knn/w4" {
		t.Fatalf("%d snapshots, the first labelled %q; want 1 labelled knn/w4", len(snaps), snaps[0].Label)
	}
	if len(snaps[0].Spans) == 0 {
		t.Fatal("no spans in the metrics file")
	}
	var report bytes.Buffer
	if err := trace.WriteReport(&report, trace.FromSnapshots(snaps), trace.ReportOptions{}); err != nil {
		t.Fatalf("analyzer rejected the metrics file: %v", err)
	}
	for _, section := range []string{"run 0  knn/w4", "== gantt ==", "== phases ==", "== fetch rtt ==", "== critical path =="} {
		if !strings.Contains(report.String(), section) {
			t.Errorf("report missing %s", section)
		}
	}
}

// TestWarnDroppedSpans checks the overflow warning and its quiet path.
func TestWarnDroppedSpans(t *testing.T) {
	var buf bytes.Buffer
	snaps := []*paratreet.MetricsSnapshot{
		{Spans: make([]metrics.Span, 75), SpansDropped: 25},
	}
	warnDroppedSpans(&buf, snaps, 75)
	out := buf.String()
	if !strings.Contains(out, "dropped 25 of 100 spans (25.0%)") || !strings.Contains(out, "raise -trace") {
		t.Fatalf("warning wrong: %q", out)
	}
	buf.Reset()
	warnDroppedSpans(&buf, []*paratreet.MetricsSnapshot{{Spans: make([]metrics.Span, 5)}}, 8)
	if buf.Len() != 0 {
		t.Fatalf("warning emitted without drops: %q", buf.String())
	}
}

// TestHTTPIntrospection exercises the -http surface: /snapshot serves
// the live registry's JSON, /debug/vars carries the expvar counters, and
// /debug/pprof/ responds.
func TestHTTPIntrospection(t *testing.T) {
	c := &experiments.MetricsCollector{TraceCapacity: 16}
	// The handlers live on an instance-scoped mux (no DefaultServeMux or
	// global expvar registration), so the test serves it directly.
	srv := httptest.NewServer(introspectionMux(c))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/snapshot"); code != http.StatusServiceUnavailable {
		t.Fatalf("/snapshot before any run: %d, want 503", code)
	}

	// Simulate a run starting: the collector hands out its registry and
	// the workload bumps a counter.
	c.StartRun().Counter("cache.hits").Inc(0)

	code, body := get("/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot: %d, want 200", code)
	}
	var snap paratreet.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot is not JSON: %v\n%s", err, body)
	}
	if snap.Counter("cache.hits") != 1 {
		t.Fatalf("/snapshot counters = %+v, want cache.hits 1", snap.Counters)
	}

	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, `"paratreet"`) {
		t.Fatalf("/debug/vars: %d, paratreet var present=%v", code, strings.Contains(body, `"paratreet"`))
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d, want 200", code)
	}
}

// TestRunUnknownExperiment checks the CLI error path.
func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "nonsense", experiments.Quick()); err == nil {
		t.Fatal("run(nonsense) succeeded, want error")
	}
}

// scale is the part of a command line that sets an experiment's scale:
// -quick, and -n and -iters when nonzero.
type scale struct {
	quick    bool
	n, iters int
}

func (sc scale) args() []string {
	var args []string
	if sc.quick {
		args = append(args, "-quick")
	}
	if sc.n > 0 {
		args = append(args, "-n", strconv.Itoa(sc.n))
	}
	if sc.iters > 0 {
		args = append(args, "-iters", strconv.Itoa(sc.iters))
	}
	return args
}

// fig12Collisions runs fig12 through the command line at the given scale
// and returns its output and the collision count its header reports.
func fig12Collisions(t *testing.T, sc scale) (string, int) {
	t.Helper()
	var out bytes.Buffer
	if err := cli(append(sc.args(), "fig12"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\((\d+) collisions total\)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("fig12 header has no collision count:\n%s", out.String())
	}
	c, _ := strconv.Atoi(m[1])
	return out.String(), c
}

// TestFig12HonoursScaleFlags checks that -n and -iters reach fig12: its
// header names the body count and steps it ran.
func TestFig12HonoursScaleFlags(t *testing.T) {
	out, _ := fig12Collisions(t, scale{n: 1500, iters: 3})
	if !strings.Contains(out, "1500 bodies, 3 steps") {
		t.Fatalf("fig12 header ignores -n 1500 -iters 3:\n%s", out)
	}
}

// TestQuickFig12RecordsCollisions checks that the -quick smoke scale of
// fig12 records collisions, so its figure is not empty.
func TestQuickFig12RecordsCollisions(t *testing.T) {
	if out, c := fig12Collisions(t, scale{quick: true}); c == 0 {
		t.Fatalf("quick fig12 recorded no collisions:\n%s", out)
	}
}

// TestFlagsReachEveryRun drives every experiment through run at a tiny
// scale with a metrics collector: each one that runs a simulation must
// collect at least one snapshot labelled with its name.
func TestFlagsReachEveryRun(t *testing.T) {
	for _, name := range experiments.Names {
		t.Run(name, func(t *testing.T) {
			opts := experiments.Scale(name, true)
			opts.N, opts.Iters, opts.Workers = 1000, 1, []int{2}
			opts.Metrics = &experiments.MetricsCollector{}
			if err := run(io.Discard, name, opts); err != nil {
				t.Fatal(err)
			}
			snaps := opts.Metrics.Snapshots()
			if name == "table1" || name == "table3" { // no simulation
				if len(snaps) != 0 {
					t.Fatalf("%d snapshots from a table that runs no simulation", len(snaps))
				}
				return
			}
			if len(snaps) == 0 {
				t.Fatal("no snapshot collected")
			}
			for _, s := range snaps {
				if !strings.HasPrefix(s.Label, name+"/") {
					t.Errorf("snapshot label %q, want %s/...", s.Label, name)
				}
			}
		})
	}
}
