package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"paratreet/internal/metrics"
)

// Chrome Trace Event Format mapping. One process row per simulated proc
// (plus one machine-level row for barriers), one thread row per worker
// (tid 0 is the comm goroutine / unattributed track):
//
//	pid = run*1000 + proc + 1   (proc -1, machine level, maps to run*1000)
//	tid = worker + 1            (worker -1 maps to tid 0)
//
// Durations become "X" complete events, instants become "i", and
// fetch→fill / send→recv pairs become "s"/"f" flow arrows sharing a flow
// id, so Perfetto draws the cause→effect arrows Projections-style.

// pidBase spaces runs apart in the pid namespace.
const pidBase = 1000

// chromeEvent is one Trace Event Format record. Field declaration order
// is the JSON emission order (encoding/json preserves it), which keeps
// exports byte-stable for golden tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func eventPid(run, proc int) int { return run*pidBase + proc + 1 }
func eventTid(worker int) int    { return worker + 1 }
func usec(ns int64) float64      { return float64(ns) / 1e3 }

// WriteChrome exports the snapshots' spans as Chrome Trace Event Format
// JSON. The output is deterministic for a given input: metadata rows
// sorted by pid/tid, spans in recorded order, flow arrows sorted by flow
// id.
func WriteChrome(w io.Writer, snaps []*metrics.Snapshot) error {
	t := FromSnapshots(snaps)
	var events []chromeEvent

	// Metadata: name every process and thread row that appears.
	type tidKey struct{ pid, tid int }
	pids := make(map[int]string)
	tids := make(map[tidKey]string)
	for _, e := range t.Events {
		pid := eventPid(e.Run, e.Proc)
		if _, ok := pids[pid]; !ok {
			label := ""
			if e.Run < len(t.Labels) && t.Labels[e.Run] != "" {
				label = t.Labels[e.Run] + " "
			}
			if e.Proc < 0 {
				pids[pid] = fmt.Sprintf("%smachine (run %d)", label, e.Run)
			} else {
				pids[pid] = fmt.Sprintf("%sproc %d (run %d)", label, e.Proc, e.Run)
			}
		}
		tk := tidKey{pid, eventTid(e.Worker)}
		if _, ok := tids[tk]; !ok {
			if e.Worker < 0 {
				tids[tk] = "comm"
			} else {
				tids[tk] = fmt.Sprintf("worker %d", e.Worker)
			}
		}
	}
	sortedPids := make([]int, 0, len(pids))
	for pid := range pids {
		sortedPids = append(sortedPids, pid)
	}
	sort.Ints(sortedPids)
	for _, pid := range sortedPids {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": pids[pid]},
		})
	}
	sortedTids := make([]tidKey, 0, len(tids))
	for tk := range tids {
		sortedTids = append(sortedTids, tk)
	}
	sort.Slice(sortedTids, func(a, b int) bool {
		if sortedTids[a].pid != sortedTids[b].pid {
			return sortedTids[a].pid < sortedTids[b].pid
		}
		return sortedTids[a].tid < sortedTids[b].tid
	})
	for _, tk := range sortedTids {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tk.pid, Tid: tk.tid,
			Args: map[string]any{"name": tids[tk]},
		})
	}

	// Spans, in recorded order. Flow producers/consumers are collected
	// for the arrow pass below.
	type flowEnd struct {
		ev  chromeEvent
		set bool
	}
	type flowPair struct {
		src, dst flowEnd
	}
	flows := make(map[uint64]*flowPair)
	flowIDs := []uint64{}
	for _, e := range t.Events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Kind.String(),
			Ts:   usec(e.StartNs),
			Pid:  eventPid(e.Run, e.Proc),
			Tid:  eventTid(e.Worker),
		}
		if e.DurNs > 0 {
			dur := usec(e.DurNs)
			ce.Ph = "X"
			ce.Dur = &dur
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		if e.Flow != 0 {
			ce.Args = map[string]any{"flow": e.Flow}
			fp := flows[e.Flow]
			if fp == nil {
				fp = &flowPair{}
				flows[e.Flow] = fp
				flowIDs = append(flowIDs, e.Flow)
			}
			switch e.Kind {
			case metrics.EvFetch, metrics.EvMsgSend:
				fp.src = flowEnd{ev: ce, set: true}
			case metrics.EvFill, metrics.EvMsgRecv, metrics.EvDrop:
				// A drop terminates its flow at the receiver, so the arrow
				// shows where the message died.
				if !fp.dst.set {
					fp.dst = flowEnd{ev: ce, set: true}
				}
			}
		}
		events = append(events, ce)
	}

	// Flow arrows for complete pairs, sorted by flow id.
	sort.Slice(flowIDs, func(a, b int) bool { return flowIDs[a] < flowIDs[b] })
	for _, id := range flowIDs {
		fp := flows[id]
		if !fp.src.set || !fp.dst.set {
			continue
		}
		name := fp.src.ev.Cat + "->" + fp.dst.ev.Cat
		events = append(events, chromeEvent{
			Name: name, Cat: "flow", Ph: "s", Ts: fp.src.ev.Ts,
			Pid: fp.src.ev.Pid, Tid: fp.src.ev.Tid,
			ID: fmt.Sprintf("%d", id),
		})
		events = append(events, chromeEvent{
			Name: name, Cat: "flow", Ph: "f", Ts: fp.dst.ev.Ts,
			Pid: fp.dst.ev.Pid, Tid: fp.dst.ev.Tid,
			ID: fmt.Sprintf("%d", id), BP: "e",
		})
	}

	// One event per line: diffable, and still a single valid JSON object.
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
