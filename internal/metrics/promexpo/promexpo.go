// Package promexpo renders a metrics.Snapshot in the Prometheus text
// exposition format (version 0.0.4) with no dependency beyond the
// standard library. Every instrument class maps to its natural
// Prometheus type:
//
//	counters -> counter families, "_total"-suffixed per convention
//	gauges   -> gauge families
//	sketches -> two views of one instrument: a histogram family
//	            (cumulative "_bucket" series with "le" labels at the
//	            power-of-two boundaries, plus "_sum" and "_count") and a
//	            "_summary"-suffixed summary family ("quantile"-labeled
//	            p50/p90/p99/p999 series plus "_sum" and "_count")
//
// Instrument names are sanitized into the Prometheus grammar (dots and
// other invalid runes become underscores: "serve.queue_wait_ns" scrapes
// as "serve_queue_wait_ns" and "serve_queue_wait_ns_summary"). Output is
// deterministically ordered (sorted by family name within each class),
// so the encoding is byte-stable for a given snapshot and
// golden-testable.
package promexpo

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"paratreet/internal/metrics"
)

// ContentType is the exposition media type scrapers expect.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// SanitizeName maps an instrument name into the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func SanitizeName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// Write renders the snapshot's scalar instruments as text exposition.
// Spans, phases, worker utilization, and the comm matrix stay JSON-only
// (/snapshot): they are per-run profiles, not scrapeable series.
func Write(w io.Writer, s *metrics.Snapshot) error {
	if s == nil {
		return fmt.Errorf("promexpo: nil snapshot")
	}
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fam := SanitizeName(name) + "_total"
		fmt.Fprintf(&b, "# HELP %s paratreet counter %q\n# TYPE %s counter\n%s %d\n",
			fam, name, fam, fam, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fam := SanitizeName(name)
		fmt.Fprintf(&b, "# HELP %s paratreet gauge %q\n# TYPE %s gauge\n%s %d\n",
			fam, name, fam, fam, s.Gauges[name])
	}
	sketches := sortedKeys(s.Sketches)
	for _, name := range sketches {
		sk := s.Sketches[name]
		fam := SanitizeName(name)
		fmt.Fprintf(&b, "# HELP %s paratreet histogram %q (power-of-two buckets)\n# TYPE %s histogram\n",
			fam, name, fam)
		var cum int64
		for _, bk := range sk.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", fam, bk.Le, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			fam, sk.Count, fam, sk.Sum, fam, sk.Count)
	}
	for _, name := range sketches {
		sk := s.Sketches[name]
		fam := SanitizeName(name) + "_summary"
		fmt.Fprintf(&b, "# HELP %s paratreet quantile sketch %q\n# TYPE %s summary\n", fam, name, fam)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.9\"} %d\n%s{quantile=\"0.99\"} %d\n%s{quantile=\"0.999\"} %d\n",
			fam, sk.P50, fam, sk.P90, fam, sk.P99, fam, sk.P999)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", fam, sk.Sum, fam, sk.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Handler serves the live snapshot as a scrapeable GET /metrics
// endpoint. snapshot may return nil (no registry live), which answers
// 503 so scrapers record the target down rather than an empty series
// set.
func Handler(snapshot func() *metrics.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := snapshot()
		if snap == nil {
			http.Error(w, "no metrics registry live", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_ = Write(w, snap)
	})
}
