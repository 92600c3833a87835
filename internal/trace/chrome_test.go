package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"paratreet/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureSnapshots is a hand-built two-proc run exercising every event
// kind, both flow pairs (fetch→fill, send→recv), and an unattributed
// comm-track event.
func fixtureSnapshots() []*metrics.Snapshot {
	return []*metrics.Snapshot{{
		Label: "knn/w2",
		Spans: []metrics.Span{
			{Name: "quiescence", Kind: metrics.EvBarrier, Proc: -1, Worker: -1, StartNs: 0, DurNs: 9000},
			{Name: "local-traversal", Kind: metrics.EvPhase, Proc: 0, Worker: -1, StartNs: 1000, DurNs: 4000},
			{Name: "task", Kind: metrics.EvTask, Proc: 0, Worker: 0, StartNs: 1000, DurNs: 4000},
			{Name: "fetch", Kind: metrics.EvFetch, Proc: 0, Worker: -1, Flow: 1, StartNs: 2000, DurNs: 0},
			{Name: "send", Kind: metrics.EvMsgSend, Proc: 0, Worker: -1, Flow: 2, StartNs: 2100, DurNs: 0},
			{Name: "park", Kind: metrics.EvPark, Proc: 0, Worker: -1, StartNs: 2200, DurNs: 0},
			{Name: "recv", Kind: metrics.EvMsgRecv, Proc: 1, Worker: -1, Flow: 2, StartNs: 4100, DurNs: 300},
			{Name: "task", Kind: metrics.EvTask, Proc: 1, Worker: 1, StartNs: 4500, DurNs: 1500},
			{Name: "idle", Kind: metrics.EvIdle, Proc: 0, Worker: 0, StartNs: 5000, DurNs: 1000},
			{Name: "fill", Kind: metrics.EvFill, Proc: 0, Worker: -1, Flow: 1, StartNs: 6500, DurNs: 500},
			{Name: "resume", Kind: metrics.EvResume, Proc: 0, Worker: -1, StartNs: 7000, DurNs: 0},
			{Name: "task", Kind: metrics.EvTask, Proc: 0, Worker: 0, StartNs: 7000, DurNs: 2000},
		},
	}}
}

// TestWriteChromeGolden locks the exporter's byte-level output: Chrome
// Trace consumers key off exact field names (ph/ts/dur/pid/tid), and a
// byte-stable export is what makes traces diffable across runs.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fixtureSnapshots()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeFieldShape validates the export against the Trace Event
// Format contract: every record has a phase, complete events carry
// microsecond ts/dur, and flow arrows come in s/f pairs with matching
// ids.
func TestChromeFieldShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fixtureSnapshots()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	flowStarts := map[string]bool{}
	flowEnds := map[string]bool{}
	var complete, instant int
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			if name := ev["name"]; name != "process_name" && name != "thread_name" {
				t.Fatalf("unexpected metadata record %v", ev)
			}
		case "X":
			complete++
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
			fallthrough
		case "i":
			if ph == "i" {
				instant++
			}
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("span without ts: %v", ev)
			}
			if _, ok := ev["pid"].(float64); !ok {
				t.Fatalf("span without pid: %v", ev)
			}
			if _, ok := ev["tid"].(float64); !ok {
				t.Fatalf("span without tid: %v", ev)
			}
		case "s":
			flowStarts[ev["id"].(string)] = true
		case "f":
			flowEnds[ev["id"].(string)] = true
			if ev["bp"] != "e" {
				t.Fatalf("flow finish without bp=e: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q in %v", ph, ev)
		}
	}
	if complete == 0 || instant == 0 {
		t.Fatalf("expected both complete and instant events, got %d/%d", complete, instant)
	}
	if len(flowStarts) != 2 || len(flowEnds) != 2 {
		t.Fatalf("expected 2 flow pairs, got starts=%v ends=%v", flowStarts, flowEnds)
	}
	for id := range flowStarts {
		if !flowEnds[id] {
			t.Fatalf("flow %s has start but no finish", id)
		}
	}
	// ts of the fetch instant must be in microseconds: 2000ns -> 2.
	found := false
	for _, ev := range f.TraceEvents {
		if ev["cat"] == "fetch" {
			if ts := ev["ts"].(float64); ts != 2 {
				t.Fatalf("fetch ts = %v µs, want 2", ts)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("fetch event missing from export")
	}
}
