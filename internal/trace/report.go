package trace

import (
	"fmt"
	"io"
	"sort"

	"paratreet/internal/lb"
	"paratreet/internal/metrics"
)

// ReportOptions tunes the text reports.
type ReportOptions struct {
	// TopK bounds the longest-spans listing (default 10).
	TopK int
	// Width is the Gantt chart column count (default 64).
	Width int
}

func (o ReportOptions) topK() int {
	if o.TopK <= 0 {
		return 10
	}
	return o.TopK
}

func (o ReportOptions) width() int {
	if o.Width <= 0 {
		return 64
	}
	return o.Width
}

// WriteReport prints every report section: summary, Gantt, per-phase
// imbalance, longest spans, fetch round-trips, and the critical-path
// estimate.
func WriteReport(w io.Writer, t *Trace, opts ReportOptions) error {
	if err := t.Validate(); err != nil {
		return err
	}
	t.AttributeWorkers()
	if err := WriteSummary(w, t); err != nil {
		return err
	}
	if err := WriteGantt(w, t, opts.width()); err != nil {
		return err
	}
	if err := WritePhases(w, t); err != nil {
		return err
	}
	if err := WriteTopSpans(w, t, opts.topK()); err != nil {
		return err
	}
	if err := WriteFetchRTT(w, t); err != nil {
		return err
	}
	if err := WriteLatencyQuantiles(w, t); err != nil {
		return err
	}
	return WriteCriticalPath(w, t)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// WriteSummary prints the trace time range, the spans the rings dropped,
// each run's label, and event counts by kind.
func WriteSummary(w io.Writer, t *Trace) error {
	lo, hi := t.timeRange()
	if _, err := fmt.Fprintf(w, "== summary ==\nruns %d  events %d  span %.3f ms",
		t.Runs(), len(t.Events), ms(hi-lo)); err != nil {
		return err
	}
	if t.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "  dropped %d", t.Dropped); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for run, label := range t.Labels {
		if label == "" {
			continue
		}
		if _, err := fmt.Fprintf(w, "  run %d  %s\n", run, label); err != nil {
			return err
		}
	}
	var counts [metrics.NumEventKinds]int
	for _, e := range t.Events {
		counts[e.Kind]++
	}
	for k, n := range counts {
		if n == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-9s %d\n", metrics.EventKind(k).String(), n); err != nil {
			return err
		}
	}
	return nil
}

// ganttChars maps event kinds to Gantt cell characters, in priority
// order: work beats waiting, waiting beats envelope phases.
var ganttOrder = []struct {
	kind metrics.EventKind
	ch   byte
}{
	{metrics.EvTask, '#'},
	{metrics.EvFill, 'F'},
	{metrics.EvMsgRecv, 'r'},
	{metrics.EvIdle, '.'},
	{metrics.EvPhase, '='},
	{metrics.EvBarrier, 'B'},
}

// WriteGantt prints one timeline row per (run, proc, worker) track. Each
// column covers an equal slice of the trace; its character is the kind
// with the most recorded time in that slice ('#' task, 'F' fill, 'r'
// recv, '.' idle, '=' phase, 'B' barrier). The trailing percentage is
// the track's busy share (task + fill + recv time over the trace span).
func WriteGantt(w io.Writer, t *Trace, width int) error {
	lo, hi := t.timeRange()
	if hi <= lo {
		hi = lo + 1
	}
	if _, err := fmt.Fprintf(w, "== gantt ==  ('#' task  'F' fill  'r' recv  '.' idle  '=' phase  'B' barrier; %.3f ms / col)\n",
		ms(hi-lo)/float64(width)); err != nil {
		return err
	}
	// Per-track, per-column, per-kind overlap accumulation.
	type cell [metrics.NumEventKinds]int64
	rows := make(map[trackKey][]cell)
	busy := make(map[trackKey]int64)
	colNs := float64(hi-lo) / float64(width)
	for _, e := range t.Events {
		k := trackKey{e.Run, e.Proc, e.Worker}
		if rows[k] == nil {
			rows[k] = make([]cell, width)
		}
		if e.DurNs == 0 {
			continue
		}
		switch e.Kind {
		case metrics.EvTask, metrics.EvFill, metrics.EvMsgRecv:
			busy[k] += e.DurNs
		}
		c0 := int(float64(e.StartNs-lo) / colNs)
		c1 := int(float64(e.End()-lo) / colNs)
		if c1 >= width {
			c1 = width - 1
		}
		for c := c0; c <= c1; c++ {
			cLo, cHi := lo+int64(float64(c)*colNs), lo+int64(float64(c+1)*colNs)
			ov := min64(e.End(), cHi) - max64(e.StartNs, cLo)
			if ov > 0 {
				rows[k][c][e.Kind] += ov
			}
		}
	}
	for _, k := range t.tracks() {
		cells := rows[k]
		line := make([]byte, width)
		for c := range line {
			line[c] = ' '
			var best int64
			for _, g := range ganttOrder {
				if cells != nil && cells[c][g.kind] > best {
					best = cells[c][g.kind]
					line[c] = g.ch
				}
			}
		}
		worker := fmt.Sprintf("w%d", k.worker)
		if k.worker < 0 {
			worker = "comm"
		}
		if _, err := fmt.Fprintf(w, "r%d p%-2d %-5s |%s| %5.1f%% busy\n",
			k.run, k.proc, worker, line, 100*float64(busy[k])/float64(hi-lo)); err != nil {
			return err
		}
	}
	return nil
}

// WritePhases prints, per phase name, the total recorded time and the
// max/mean load imbalance across the worker tracks that ran it — the
// same imbalance metric the load balancers minimize (1.00 is perfect).
func WritePhases(w io.Writer, t *Trace) error {
	loads := make(map[string]map[trackKey]int64)
	var names []string
	for _, e := range t.Events {
		if e.Kind != metrics.EvPhase {
			continue
		}
		if loads[e.Name] == nil {
			loads[e.Name] = make(map[trackKey]int64)
			names = append(names, e.Name)
		}
		loads[e.Name][trackKey{e.Run, e.Proc, e.Worker}] += e.DurNs
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "== phases ==\n%-18s %7s %12s %9s\n", "phase", "tracks", "total ms", "imbalance"); err != nil {
		return err
	}
	for _, name := range names {
		per := loads[name]
		vals := make([]int64, 0, len(per))
		var total int64
		for _, v := range per {
			vals = append(vals, v)
			total += v
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		homes := make([]int, len(vals))
		for i := range homes {
			homes[i] = i
		}
		imb := lb.Imbalance(vals, homes, len(vals))
		if _, err := fmt.Fprintf(w, "%-18s %7d %12.3f %9.2f\n", name, len(per), ms(total), imb); err != nil {
			return err
		}
	}
	return nil
}

// WriteTopSpans prints the k longest spans.
func WriteTopSpans(w io.Writer, t *Trace, k int) error {
	idx := make([]int, len(t.Events))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := t.Events[idx[a]], t.Events[idx[b]]
		if ea.DurNs != eb.DurNs {
			return ea.DurNs > eb.DurNs
		}
		return ea.StartNs < eb.StartNs
	})
	if k > len(idx) {
		k = len(idx)
	}
	if _, err := fmt.Fprintf(w, "== top %d spans ==\n%-9s %-18s %-12s %12s %12s\n",
		k, "kind", "name", "track", "start ms", "dur ms"); err != nil {
		return err
	}
	for _, i := range idx[:k] {
		e := t.Events[i]
		track := fmt.Sprintf("r%d p%d w%d", e.Run, e.Proc, e.Worker)
		if _, err := fmt.Fprintf(w, "%-9s %-18s %-12s %12.3f %12.3f\n",
			e.Kind, e.Name, track, ms(e.StartNs), ms(e.DurNs)); err != nil {
			return err
		}
	}
	return nil
}

// WriteFetchRTT pairs fetch instants with their fills by flow id and
// prints round-trip statistics (issue → end of insert) overall and per
// requesting proc.
func WriteFetchRTT(w io.Writer, t *Trace) error {
	fetches := make(map[uint64]Event)
	var rtts []int64
	perProc := make(map[[2]int][]int64) // (run, proc) -> rtts
	var unmatched int
	for _, e := range t.Events {
		if e.Kind == metrics.EvFetch && e.Flow != 0 {
			fetches[e.Flow] = e
		}
	}
	for _, e := range t.Events {
		if e.Kind != metrics.EvFill {
			continue
		}
		f, ok := fetches[e.Flow]
		if e.Flow == 0 || !ok {
			unmatched++
			continue
		}
		rtt := e.End() - f.StartNs
		rtts = append(rtts, rtt)
		perProc[[2]int{f.Run, f.Proc}] = append(perProc[[2]int{f.Run, f.Proc}], rtt)
	}
	if _, err := fmt.Fprintln(w, "== fetch rtt =="); err != nil {
		return err
	}
	if len(rtts) == 0 {
		_, err := fmt.Fprintf(w, "no paired fetch/fill events (%d unpaired fills)\n", unmatched)
		return err
	}
	sort.Slice(rtts, func(a, b int) bool { return rtts[a] < rtts[b] })
	var sum int64
	for _, r := range rtts {
		sum += r
	}
	q := func(p float64) int64 { return rtts[int(p*float64(len(rtts)-1))] }
	if _, err := fmt.Fprintf(w, "pairs %d  unmatched %d  min %.3f  p50 %.3f  p90 %.3f  max %.3f  mean %.3f ms\n",
		len(rtts), unmatched, ms(rtts[0]), ms(q(0.5)), ms(q(0.9)), ms(rtts[len(rtts)-1]),
		ms(sum/int64(len(rtts)))); err != nil {
		return err
	}
	keys := make([][2]int, 0, len(perProc))
	for k := range perProc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		var s int64
		for _, r := range perProc[k] {
			s += r
		}
		if _, err := fmt.Fprintf(w, "  r%d p%-2d  pairs %5d  mean %.3f ms\n",
			k[0], k[1], len(perProc[k]), ms(s/int64(len(perProc[k])))); err != nil {
			return err
		}
	}
	return nil
}

// WriteLatencyQuantiles prints streaming-sketch tail quantiles of span
// durations per event kind, for the kinds that represent latencies (task
// execution, fill insertion, message dispatch, serve waves). It feeds the
// same metrics.Sketch the live service scrapes, so a trace replayed
// offline reports the same p50/p90/p99/p999 a /metrics scrape would
// have shown (within the sketch's documented ≤1/64 relative error).
func WriteLatencyQuantiles(w io.Writer, t *Trace) error {
	kinds := []metrics.EventKind{metrics.EvTask, metrics.EvFill, metrics.EvMsgRecv, metrics.EvBatch}
	if _, err := fmt.Fprintf(w, "== latency quantiles ==\n%-9s %8s %10s %10s %10s %10s\n",
		"kind", "count", "p50 ms", "p90 ms", "p99 ms", "p999 ms"); err != nil {
		return err
	}
	any := false
	for _, kind := range kinds {
		sk := metrics.NewSketch()
		for _, e := range t.Events {
			if e.Kind == kind && e.DurNs > 0 {
				sk.Observe(e.DurNs)
			}
		}
		if sk.Count() == 0 {
			continue
		}
		any = true
		s := sk.Snapshot()
		if _, err := fmt.Fprintf(w, "%-9s %8d %10.3f %10.3f %10.3f %10.3f\n",
			kind, s.Count, ms(s.P50), ms(s.P90), ms(s.P99), ms(s.P999)); err != nil {
			return err
		}
	}
	if !any {
		if _, err := fmt.Fprintln(w, "no duration events"); err != nil {
			return err
		}
	}
	return nil
}

// maxBIT is a Fenwick tree over compressed end-time coordinates holding
// prefix maxima of (critical-path length, event index).
type maxBIT struct {
	cp  []int64
	idx []int
}

func newMaxBIT(n int) *maxBIT {
	b := &maxBIT{cp: make([]int64, n+1), idx: make([]int, n+1)}
	for i := range b.idx {
		b.idx[i] = -1
	}
	return b
}

func (b *maxBIT) update(i int, cp int64, idx int) {
	for i++; i < len(b.cp); i += i & -i {
		if cp > b.cp[i] {
			b.cp[i], b.idx[i] = cp, idx
		}
	}
}

func (b *maxBIT) query(i int) (int64, int) {
	var cp int64
	idx := -1
	for i++; i > 0; i -= i & -i {
		if b.cp[i] > cp {
			cp, idx = b.cp[i], b.idx[i]
		}
	}
	return cp, idx
}

// WriteCriticalPath estimates the longest dependency chain through the
// event DAG. Predecessors of an event are (a) any earlier-finishing
// event on the same track (program order) and (b) its flow producer
// (fetch before fill, send before recv). The estimate is a lower bound
// on the run's critical path: only recorded events participate.
func WriteCriticalPath(w io.Writer, t *Trace) error {
	n := len(t.Events)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := t.Events[order[a]], t.Events[order[b]]
		if ea.StartNs != eb.StartNs {
			return ea.StartNs < eb.StartNs
		}
		return ea.End() < eb.End()
	})

	// Per-track end-time coordinate compression for the Fenwick trees.
	trackEnds := make(map[trackKey][]int64)
	for _, e := range t.Events {
		k := trackKey{e.Run, e.Proc, e.Worker}
		trackEnds[k] = append(trackEnds[k], e.End())
	}
	bits := make(map[trackKey]*maxBIT, len(trackEnds))
	for k, ends := range trackEnds {
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
		trackEnds[k] = ends
		bits[k] = newMaxBIT(len(ends))
	}

	cp := make([]int64, n)
	pred := make([]int, n)
	flowProducer := make(map[uint64]int)
	bestCP, bestIdx := int64(0), -1
	for _, i := range order {
		e := t.Events[i]
		k := trackKey{e.Run, e.Proc, e.Worker}
		ends := trackEnds[k]
		// Largest compressed index with end <= e.StartNs.
		j := sort.Search(len(ends), func(j int) bool { return ends[j] > e.StartNs }) - 1
		best, bestPred := int64(0), -1
		if j >= 0 {
			best, bestPred = bits[k].query(j)
		}
		if e.Kind == metrics.EvFill || e.Kind == metrics.EvMsgRecv {
			if p, ok := flowProducer[e.Flow]; ok && e.Flow != 0 && cp[p] > best {
				best, bestPred = cp[p], p
			}
		}
		cp[i] = best + e.DurNs
		pred[i] = bestPred
		if e.Kind == metrics.EvFetch || e.Kind == metrics.EvMsgSend {
			if e.Flow != 0 {
				flowProducer[e.Flow] = i
			}
		}
		pos := sort.Search(len(ends), func(j int) bool { return ends[j] >= e.End() })
		bits[k].update(pos, cp[i], i)
		if cp[i] > bestCP {
			bestCP, bestIdx = cp[i], i
		}
	}

	if _, err := fmt.Fprintln(w, "== critical path =="); err != nil {
		return err
	}
	if bestIdx < 0 {
		_, err := fmt.Fprintln(w, "no events")
		return err
	}
	var kindNs [metrics.NumEventKinds]int64
	var kindCount [metrics.NumEventKinds]int
	hops := 0
	for i := bestIdx; i >= 0; i = pred[i] {
		kindNs[t.Events[i].Kind] += t.Events[i].DurNs
		kindCount[t.Events[i].Kind]++
		hops++
	}
	lo, hi := t.timeRange()
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	if _, err := fmt.Fprintf(w, "length %.3f ms over %d events (%.1f%% of trace span)\n",
		ms(bestCP), hops, 100*float64(bestCP)/float64(span)); err != nil {
		return err
	}
	for k := range kindNs {
		if kindCount[k] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-9s %5d events  %10.3f ms\n",
			metrics.EventKind(k).String(), kindCount[k], ms(kindNs[k])); err != nil {
			return err
		}
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
