// Command paratreet-trace analyzes the metrics JSON that paratreet-bench
// and paratreet-serve write with -metrics-out (an array of snapshots;
// pass -trace N so they carry spans): Projections-style timeline reports
// in the terminal, no browser needed, and a Chrome Trace Event export for
// Perfetto.
//
// Usage:
//
//	paratreet-trace [flags] <command> <metrics.json>
//
// Commands:
//
//	report    all sections (summary, gantt, phases, spans, rtt, critpath)
//	gantt     per-worker utilization timeline
//	phases    per-phase totals and load imbalance (max/mean)
//	spans     top-k longest spans
//	rtt       fetch round-trip attribution
//	critpath  critical-path estimate through the event DAG
//	chrome    write the spans as Chrome Trace Event JSON to stdout
//	validate  parse and sanity-check the trace, print nothing on success
//
// The summary names each run's label and the spans its trace ring
// dropped, so a wrapped trace is not read as a whole one. The exit status
// is nonzero for malformed, empty, or invalid traces, so CI can gate on
// trace health.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"paratreet/internal/metrics"
	"paratreet/internal/trace"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: paratreet-trace [flags] <report|gantt|phases|spans|rtt|critpath|chrome|validate> <metrics.json>\n")
	flag.PrintDefaults()
}

func main() {
	topK := flag.Int("k", 10, "top-k spans to list")
	width := flag.Int("width", 64, "gantt chart width in columns")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 2 {
		usage()
		os.Exit(2)
	}
	cmd, path := flag.Arg(0), flag.Arg(1)
	if err := run(os.Stdout, cmd, path, trace.ReportOptions{TopK: *topK, Width: *width}); err != nil {
		fmt.Fprintf(os.Stderr, "paratreet-trace: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cmd, path string, opts trace.ReportOptions) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snaps []*metrics.Snapshot
	if err := json.Unmarshal(data, &snaps); err != nil {
		return fmt.Errorf("%s: not a metrics snapshot array: %w", path, err)
	}
	t := trace.FromSnapshots(snaps)
	if err := t.Validate(); err != nil {
		return err
	}
	switch cmd {
	case "report":
		return trace.WriteReport(w, t, opts)
	case "gantt":
		t.AttributeWorkers()
		return trace.WriteGantt(w, t, opts.Width)
	case "phases":
		t.AttributeWorkers()
		return trace.WritePhases(w, t)
	case "spans":
		t.AttributeWorkers()
		return trace.WriteTopSpans(w, t, opts.TopK)
	case "rtt":
		t.AttributeWorkers()
		return trace.WriteFetchRTT(w, t)
	case "critpath":
		t.AttributeWorkers()
		return trace.WriteCriticalPath(w, t)
	case "chrome":
		return trace.WriteChrome(w, snaps)
	case "validate":
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
