package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WorkerUtil is one worker's (or communication goroutine's) utilization
// profile since the last reset. Worker -1 denotes the comm goroutine.
type WorkerUtil struct {
	Proc   int   `json:"proc"`
	Worker int   `json:"worker"`
	BusyNs int64 `json:"busy_ns"`
	IdleNs int64 `json:"idle_ns"`
	Tasks  int64 `json:"tasks"`
}

// Utilization returns busy / (busy + idle), or 0 when nothing was
// accounted.
func (w WorkerUtil) Utilization() float64 {
	total := w.BusyNs + w.IdleNs
	if total <= 0 {
		return 0
	}
	return float64(w.BusyNs) / float64(total)
}

// CommEdge is the message/byte volume from one process to another.
type CommEdge struct {
	From     int   `json:"from"`
	To       int   `json:"to"`
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
}

// Snapshot is a machine-readable profile of one run: every registered
// counter, gauge, and sketch, per-phase times, per-worker utilization, the
// proc-pair communication matrix, and (when tracing) the recorded spans.
// The runtime fills Phases/Workers/Comm; the Registry fills the rest;
// callers may attach Label/Config for provenance.
type Snapshot struct {
	Label        string                    `json:"label,omitempty"`
	Config       map[string]string         `json:"config,omitempty"`
	Counters     map[string]int64          `json:"counters"`
	Gauges       map[string]int64          `json:"gauges,omitempty"`
	Sketches     map[string]SketchSnapshot `json:"quantiles,omitempty"`
	PhasesNs     map[string]int64          `json:"phases_ns,omitempty"`
	Workers      []WorkerUtil              `json:"workers,omitempty"`
	Comm         []CommEdge                `json:"comm,omitempty"`
	Spans        []Span                    `json:"spans,omitempty"`
	SpansDropped int64                     `json:"spans_dropped,omitempty"`
}

// Counter returns a counter's value by name (0 when absent), a
// convenience for tests and report code.
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSnapshots writes snaps as one indented JSON array: the file that
// -metrics-out writes and paratreet-trace reads.
func WriteSnapshots(w io.Writer, snaps []*Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteCSV writes the snapshot's scalar series as "kind,name,value" rows:
// counters, gauges, sketch aggregates and quantiles, phase times, and
// per-worker utilization. Spans are JSON-only.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("kind,name,value\n")
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter,%s,%d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge,%s,%d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Sketches) {
		sk := s.Sketches[name]
		fmt.Fprintf(&b, "hist_count,%s,%d\nhist_sum,%s,%d\nhist_mean,%s,%.1f\n",
			name, sk.Count, name, sk.Sum, name, sk.Mean())
		fmt.Fprintf(&b, "quantile_p50,%s,%d\nquantile_p90,%s,%d\nquantile_p99,%s,%d\nquantile_p999,%s,%d\n",
			name, sk.P50, name, sk.P90, name, sk.P99, name, sk.P999)
	}
	for _, name := range sortedKeys(s.PhasesNs) {
		fmt.Fprintf(&b, "phase_ns,%s,%d\n", name, s.PhasesNs[name])
	}
	for _, wu := range s.Workers {
		fmt.Fprintf(&b, "worker_util,p%dw%d,%.4f\n", wu.Proc, wu.Worker, wu.Utilization())
	}
	for _, e := range s.Comm {
		fmt.Fprintf(&b, "comm_bytes,%d->%d,%d\n", e.From, e.To, e.Bytes)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
