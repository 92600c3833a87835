package main

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// TestSummarize checks the per-metric medians and the count of pairs that
// favour the change, for a lower-is-better and a higher-is-better metric,
// and that a metric missing from a run's line drops only that pair.
func TestSummarize(t *testing.T) {
	line := func(step, rate float64) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"correct":true,"attempted":3,"failed":0,"metrics":{"step_ms_p50":{"value":%v,"unit":"ms"},"work_per_s":{"value":%v,"unit":"1/s"}}}`, step, rate))
	}
	var runs []Run
	for pair, v := range [][4]float64{
		// parent step, parent rate, change step, change rate
		{100, 10, 90, 11},
		{110, 9, 95, 12},
		{90, 12, 95, 11},
		{105, 10, 80, 13},
	} {
		runs = append(runs,
			Run{Workload: "w", Seed: 1, Pair: pair, Side: "parent", Result: line(v[0], v[1])},
			Run{Workload: "w", Seed: 1, Pair: pair, Side: "change", Result: line(v[2], v[3])})
	}
	runs = append(runs,
		Run{Workload: "w", Seed: 1, Pair: 4, Side: "parent", Result: json.RawMessage(`{"correct":true,"metrics":{}}`)},
		Run{Workload: "w", Seed: 1, Pair: 4, Side: "change", Result: line(1, 1)})
	got, err := summarize(runs, []metricDef{
		{Name: "step_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "work_per_s", Unit: "1/s", Better: "higher"},
		{Name: "absent", Unit: "s", Better: "lower"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Summary{
		{Workload: "w", Seed: 1, Metric: "step_ms_p50", Unit: "ms", Better: "lower",
			ParentMedian: 102.5, ChangeMedian: 92.5, ChangeShare: -4.0 / 41, PairsForChange: 3, Pairs: 4},
		{Workload: "w", Seed: 1, Metric: "work_per_s", Unit: "1/s", Better: "higher",
			ParentMedian: 10, ChangeMedian: 11.5, ChangeShare: 0.15, PairsForChange: 3, Pairs: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d summaries %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if math.Abs(got[i].ChangeShare-want[i].ChangeShare) < 1e-12 {
			got[i].ChangeShare = want[i].ChangeShare
		}
		if got[i] != want[i] {
			t.Errorf("summary %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
