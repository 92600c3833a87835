package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around its calls into the program. Parent is the
// index of the span that caused it (-1 for a root); spans of one iteration
// or request share Unit.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Unit    int    `json:"unit"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untraced run stays span-free. It is filled
// from the measuring goroutine only (request spans are appended after the
// phase's callers have been joined).
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records one span and returns its index for use as a parent.
func (l *spanLog) add(name string, start, end time.Time, parent, unit int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		Name:    name,
		StartNs: start.Sub(l.epoch).Nanoseconds(),
		EndNs:   end.Sub(l.epoch).Nanoseconds(),
		Parent:  parent,
		Unit:    unit,
	})
	return len(l.spans) - 1
}

// selfTimes returns, per span name, every span's self time in ms: its
// duration minus the part its direct children cover.
func (l *spanLog) selfTimes() map[string][]float64 {
	if l == nil {
		return nil
	}
	covered := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string][]float64{}
	for i, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs-covered[i])/1e6)
	}
	return out
}

// checkTiling verifies the structural claim the explain table rests on:
// every child lies inside its parent and siblings do not overlap, so self
// times are non-negative and a parent's self time is exactly what its
// children leave unexplained.
func (l *spanLog) checkTiling() error {
	if l == nil {
		return nil
	}
	lastEnd := map[int]int64{}
	for i, s := range l.spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) precedes its parent %d", i, s.Name, s.Parent)
		}
		p := l.spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
				i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		// Children are appended in time order, so comparing against the
		// previous sibling's end is enough.
		if end, ok := lastEnd[s.Parent]; ok && s.StartNs < end {
			return fmt.Errorf("span %d (%s) overlaps an earlier child of span %d", i, s.Name, s.Parent)
		}
		lastEnd[s.Parent] = s.EndNs
	}
	return nil
}

// write stores the spans as JSON at path, creating its directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// explainRow is one line of the explain table: a layer span's median self
// time against the workload's median step, both in the table's unit.
type explainRow struct {
	name string
	self float64
}

// explain adds the table to r's notes — the rows against whole (the traced
// median step), then the unexplained residual — and returns the explained
// share: 1 minus the residual's size, since medians of parts can sum to
// either side of the median of the whole.
func explain(r *result, title, unit string, whole float64, rows []explainRow) float64 {
	r.notef("explain %s: traced median step %.4f %s", title, whole, unit)
	var sum float64
	for _, row := range rows {
		sum += row.self
		r.notef("  %-28s %10.4f %s  %6.2f%%", row.name, row.self, unit, 100*ratio(row.self, whole))
	}
	r.notef("  %-28s %10.4f %s  %6.2f%%", "(unexplained residual)", whole-sum, unit, 100*ratio(whole-sum, whole))
	return 1 - math.Abs(ratio(whole-sum, whole))
}
