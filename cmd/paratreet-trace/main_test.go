package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paratreet/internal/metrics"
	"paratreet/internal/trace"
)

// fixtureSnapshots is one small traced run: a task, a fetch→fill flow
// pair and a phase span.
func fixtureSnapshots() []*metrics.Snapshot {
	return []*metrics.Snapshot{{
		Label: "fixture",
		Spans: []metrics.Span{
			{Name: "task", Kind: metrics.EvTask, Proc: 0, Worker: 0, StartNs: 0, DurNs: 5000},
			{Name: "fetch", Kind: metrics.EvFetch, Proc: 0, Worker: -1, Flow: 1, StartNs: 1000, DurNs: 0},
			{Name: "fill", Kind: metrics.EvFill, Proc: 0, Worker: -1, Flow: 1, StartNs: 3000, DurNs: 500},
			{Name: "local-traversal", Kind: metrics.EvPhase, Proc: 0, Worker: -1, StartNs: 0, DurNs: 5000},
		},
	}}
}

// writeSnapshots writes snaps as -metrics-out does: one indented JSON
// array.
func writeSnapshots(t *testing.T, snaps []*metrics.Snapshot) string {
	t.Helper()
	b, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCommands(t *testing.T) {
	path := writeSnapshots(t, fixtureSnapshots())
	opts := trace.ReportOptions{TopK: 5, Width: 32}
	wants := map[string]string{
		"report":   "== critical path ==",
		"gantt":    "== gantt ==",
		"phases":   "local-traversal",
		"spans":    "== top 4 spans ==", // k clamps to the event count
		"rtt":      "pairs 1",
		"critpath": "== critical path ==",
		"chrome":   `"traceEvents"`,
		"validate": "",
	}
	for cmd, want := range wants {
		var buf bytes.Buffer
		if err := run(&buf, cmd, path, opts); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("%s output missing %q:\n%s", cmd, want, buf.String())
		}
	}
}

// TestSummaryReportsLabelAndDrops checks that what the snapshot knows
// about its run reaches the summary: the run's label and the spans its
// ring dropped, so a wrapped trace does not read as a whole one.
func TestSummaryReportsLabelAndDrops(t *testing.T) {
	snaps := fixtureSnapshots()
	snaps[0].Label = "knn/w4"
	snaps[0].SpansDropped = 25
	var buf bytes.Buffer
	if err := run(&buf, "report", writeSnapshots(t, snaps), trace.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	summary, _, _ := strings.Cut(buf.String(), "== gantt ==")
	for _, want := range []string{"dropped 25", "run 0  knn/w4"} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary missing %q:\n%s", want, summary)
		}
	}
}

// TestChromeMatchesWriteChrome checks the chrome command renders exactly
// what trace.WriteChrome renders for the snapshots the file holds.
func TestChromeMatchesWriteChrome(t *testing.T) {
	snaps := fixtureSnapshots()
	snaps = append(snaps, &metrics.Snapshot{
		Label: "second",
		Spans: []metrics.Span{
			{Name: "send", Kind: metrics.EvMsgSend, Proc: 1, Worker: -1, Flow: 7, StartNs: 200, DurNs: 0},
			{Name: "recv", Kind: metrics.EvMsgRecv, Proc: 0, Worker: -1, Flow: 7, StartNs: 900, DurNs: 300},
		},
		SpansDropped: 3,
	})
	var got, want bytes.Buffer
	if err := run(&got, "chrome", writeSnapshots(t, snaps), trace.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&want, snaps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("chrome output differs from trace.WriteChrome\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	opts := trace.ReportOptions{}
	if err := run(&buf, "report", filepath.Join(t.TempDir(), "missing.json"), opts); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("[{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "report", bad, opts); err == nil {
		t.Fatal("malformed file accepted")
	}
	// A bare snapshot object is not the array -metrics-out writes.
	bare := filepath.Join(t.TempDir(), "bare.json")
	if err := os.WriteFile(bare, []byte(`{"label":"x","counters":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "validate", bare, opts); err == nil {
		t.Fatal("bare snapshot object validated")
	}
	// A run with -trace 0 carries no spans: nothing to analyze.
	untraced := writeSnapshots(t, []*metrics.Snapshot{{Label: "untraced", Counters: map[string]int64{"cache.hits": 1}}})
	if err := run(&buf, "validate", untraced, opts); err == nil {
		t.Fatal("snapshot without spans validated")
	}
	good := writeSnapshots(t, fixtureSnapshots())
	if err := run(&buf, "frobnicate", good, opts); err == nil {
		t.Fatal("unknown command accepted")
	}
}
