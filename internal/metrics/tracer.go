package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind types a trace span, the Projections-style event taxonomy of
// the simulated runtime: what the slice of time (or instant) was spent on.
// The analyzer CLI and the Chrome Trace exporter key their reports off it.
type EventKind uint8

const (
	// EvPhase is a phase-timer slice (rt.Proc.PhaseSince).
	EvPhase EventKind = iota
	// EvTask is one task execution on a worker.
	EvTask
	// EvIdle is a worker's gap between tasks.
	EvIdle
	// EvMsgSend is the instant a message was posted to another process.
	EvMsgSend
	// EvMsgRecv is the dispatch of an arrived message on the communication
	// goroutine; its flow id matches the EvMsgSend that produced it.
	EvMsgRecv
	// EvFetch is the instant a cache fetch round-trip was issued.
	EvFetch
	// EvFill is the cache insertion of the returned subtree; its flow id
	// matches the EvFetch that requested it.
	EvFill
	// EvPark is the instant a traversal frame parked on a remote
	// placeholder's waiter list.
	EvPark
	// EvResume is the instant a parked frame was resumed after a fill.
	EvResume
	// EvBarrier is a quiescence wait on the driver thread.
	EvBarrier
	// EvDrop is the instant an injected fault discarded a message at its
	// destination; its flow id matches the EvMsgSend that produced it.
	EvDrop
	// EvRetry is the instant the cache re-sent a fetch whose fill missed
	// its deadline; its flow id matches the original EvFetch.
	EvRetry
	// EvBatch is one coalesced query wave executed by the serve batcher:
	// the span covers the wave's traversal time, and its name carries the
	// batch size.
	EvBatch
	// EvSLO is an SLO watchdog transition instant: a breach (readiness
	// dropped: error rate or latency out of objective) or a recovery. The
	// name carries the direction and reason, e.g. "breach[p99]".
	EvSLO

	// NumEventKinds is the number of event kinds.
	NumEventKinds
)

// eventKindNames are the wire names, used in snapshot JSON and as the
// Chrome Trace Event category.
var eventKindNames = [NumEventKinds]string{
	"phase", "task", "idle", "msg-send", "msg-recv",
	"fetch", "fill", "park", "resume", "barrier",
	"drop", "retry", "batch", "slo",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// MarshalJSON writes the kind as its wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON reads a wire name.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for kind, name := range eventKindNames {
		if name == s {
			*k = EventKind(kind)
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown event kind %q", s)
}

// Span is one timestamped, typed slice of execution recorded by the
// Tracer: a named activity on one process, optionally attributed to a
// worker (-1 when unattributed: comm goroutine or unknown), with an
// optional flow id linking cause to effect across tracks (fetch→fill,
// send→recv; 0 means no flow). Instant events carry DurNs 0. Times are
// nanoseconds since the tracer's epoch, so exported traces are portable
// and diffable across runs.
type Span struct {
	Name    string    `json:"name"`
	Kind    EventKind `json:"kind"`
	Proc    int       `json:"proc"`
	Worker  int       `json:"worker"`
	Flow    uint64    `json:"flow,omitempty"`
	StartNs int64     `json:"start_ns"`
	DurNs   int64     `json:"dur_ns"`
}

// Tracer records spans into a fixed-capacity ring buffer: the most recent
// TraceCapacity spans survive, older ones are overwritten (and counted as
// dropped). Span recording happens at task/message/fetch granularity — per
// worker task, per message dispatch, per fill insert — not per tree node,
// so a small mutex-guarded ring is cheap relative to the work being
// traced.
type Tracer struct {
	epoch time.Time
	flow  atomic.Uint64

	mu      sync.Mutex
	ring    []Span // guarded by mu
	next    int    // guarded by mu
	wrapped bool   // guarded by mu
	total   int64  // guarded by mu
}

func newTracer(capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), ring: make([]Span, capacity)}
}

// NextFlow allocates a fresh nonzero flow id linking a producer event to
// its consumer (fetch→fill, send→recv). Returns 0 on a nil tracer, which
// Emit records as "no flow".
//
//paratreet:hotpath
func (t *Tracer) NextFlow() uint64 {
	if t == nil {
		return 0
	}
	return t.flow.Add(1)
}

// Emit records one typed span. Instants pass dur 0. Safe for concurrent
// use; no-op on a nil tracer. Emit takes no clock reads of its own —
// callers pass timestamps they already hold at task granularity.
//
//paratreet:hotpath
func (t *Tracer) Emit(kind EventKind, name string, proc, worker int, flow uint64, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	s := Span{
		Name:    name,
		Kind:    kind,
		Proc:    proc,
		Worker:  worker,
		Flow:    flow,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
	}
	//paratreet:allow(hotpath) ring append is a few stores; contention only among emitting workers
	t.mu.Lock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.total++
	t.mu.Unlock()
}

// Spans returns the surviving spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Span, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Total returns how many spans were ever emitted.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return 0
	}
	return t.total - int64(len(t.ring))
}

func (t *Tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next, t.wrapped, t.total = 0, false, 0
	t.mu.Unlock()
}
