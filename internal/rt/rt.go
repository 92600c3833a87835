// Package rt simulates the distributed runtime the original system gets
// from Charm++: a machine of P processes, each with W worker threads,
// message-driven communication between processes, least-busy-worker task
// placement, quiescence detection, per-phase utilization timers, and
// communication accounting. Processes live in one Go address space but
// interact only through messages and their own task queues, so every
// contention and communication path of the real system executes for real;
// optional per-message latency and per-byte costs model the wire.
package rt

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paratreet/internal/metrics"
)

// Config describes the simulated machine.
type Config struct {
	// Procs is the number of simulated processes.
	Procs int
	// WorkersPerProc is the number of worker goroutines per process
	// (the paper runs one thread per core, e.g. 24 per Stampede2 process).
	WorkersPerProc int
	// Latency is the simulated per-message wire latency.
	Latency time.Duration
	// PerByte is the simulated per-byte transfer cost.
	PerByte time.Duration
	// Metrics, when non-nil, attaches the observability layer: the machine
	// maintains a per-proc-pair communication matrix, a task-duration
	// sketch, and (if the registry traces) phase spans, and the cache
	// and traversal layers resolve their instruments from it via
	// Proc.Metrics. A nil registry costs one pointer check per event.
	Metrics *metrics.Registry
	// Faults, when non-nil and active, injects delivery faults on
	// cross-process links: latency jitter and short delivery pauses on
	// every message, plus drops and duplicates on messages posted through
	// SendLossy (traffic whose application layer retries, i.e. the cache
	// fetch protocol). Self-sends are never faulted. Nil delivers
	// everything exactly once.
	Faults *FaultConfig
}

// FaultConfig parameterizes deterministic fault injection. Each link
// (ordered process pair) draws from its own PRNG seeded from Seed, so a
// link's fault sequence is a pure function of the seed and the order of
// sends on that link — chaos runs are reproducible wherever the
// application's send order is.
type FaultConfig struct {
	// Seed seeds the per-link PRNGs.
	Seed int64
	// DropProb is the probability a SendLossy message is discarded at its
	// destination (through the audited quiescence path).
	DropProb float64
	// DupProb is the probability a SendLossy message arrives twice.
	DupProb float64
	// JitterMax adds uniform [0, JitterMax) extra latency per message.
	JitterMax time.Duration
	// PauseProb is the probability a delivery stalls the destination's
	// communication goroutine for uniform [0, PauseMax), modeling OS or
	// GC hiccups on the comm thread.
	PauseProb float64
	// PauseMax bounds the injected pause.
	PauseMax time.Duration
}

// active reports whether the spec injects any fault at all.
func (f *FaultConfig) active() bool {
	return f != nil && (f.DropProb > 0 || f.DupProb > 0 || f.JitterMax > 0 ||
		(f.PauseProb > 0 && f.PauseMax > 0))
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.WorkersPerProc <= 0 {
		c.WorkersPerProc = 1
	}
	return c
}

// TotalWorkers returns Procs * WorkersPerProc.
func (c Config) TotalWorkers() int { return c.Procs * c.WorkersPerProc }

// Phase labels a slice of execution time for the utilization profile
// (the reproduction of the paper's Fig 9 Projections timeline).
type Phase int

const (
	// PhaseTreeBuild covers decomposition and subtree construction.
	PhaseTreeBuild Phase = iota
	// PhaseTopShare covers distributing the root and top-level nodes.
	PhaseTopShare
	// PhaseLocalTraversal covers traversal work on local/cached nodes.
	PhaseLocalTraversal
	// PhaseCacheRequest covers issuing and serving remote node requests.
	PhaseCacheRequest
	// PhaseCacheInsert covers deserializing fills and cache insertion.
	PhaseCacheInsert
	// PhaseResume covers resuming paused traversals.
	PhaseResume
	// PhaseLeafShare covers the Partitions-Subtrees leaf-sharing step.
	PhaseLeafShare
	// PhaseIdle is worker time spent with no runnable task.
	PhaseIdle
	// PhaseOther is everything else.
	PhaseOther

	// NumPhases is the number of phases.
	NumPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	names := [...]string{"tree-build", "top-share", "local-traversal",
		"cache-request", "cache-insert", "resume", "leaf-share", "idle", "other"}
	if int(p) < len(names) {
		return names[p]
	}
	return "unknown"
}

// Stats counts communication and scheduling events on one process.
// All fields are atomics; read them only via Snapshot.
type Stats struct {
	MessagesSent      atomic.Int64
	BytesSent         atomic.Int64
	NodeRequests      atomic.Int64
	DuplicateRequests atomic.Int64
	Fills             atomic.Int64
	NodesShipped      atomic.Int64
	ParticlesShipped  atomic.Int64
	TasksRun          atomic.Int64
	LockWaitNanos     atomic.Int64
	Steals            atomic.Int64
	// Retries counts fetch re-sends after a fill missed its deadline
	// (incremented by the cache's retry handler).
	Retries atomic.Int64
	// Drops counts messages discarded by injected wire faults, recorded on
	// the destination process at arrival time.
	Drops atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	MessagesSent, BytesSent               int64
	NodeRequests, DuplicateRequests       int64
	Fills, NodesShipped, ParticlesShipped int64
	TasksRun, LockWaitNanos, Steals       int64
	Retries, Drops                        int64
}

// Snapshot reads all counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		MessagesSent:      s.MessagesSent.Load(),
		BytesSent:         s.BytesSent.Load(),
		NodeRequests:      s.NodeRequests.Load(),
		DuplicateRequests: s.DuplicateRequests.Load(),
		Fills:             s.Fills.Load(),
		NodesShipped:      s.NodesShipped.Load(),
		ParticlesShipped:  s.ParticlesShipped.Load(),
		TasksRun:          s.TasksRun.Load(),
		LockWaitNanos:     s.LockWaitNanos.Load(),
		Steals:            s.Steals.Load(),
		Retries:           s.Retries.Load(),
		Drops:             s.Drops.Load(),
	}
}

// reset zeroes every counter with atomic stores (safe while workers are
// live, unlike overwriting the struct). Tests enforce by
// reflection that every field is covered.
func (s *Stats) reset() {
	s.MessagesSent.Store(0)
	s.BytesSent.Store(0)
	s.NodeRequests.Store(0)
	s.DuplicateRequests.Store(0)
	s.Fills.Store(0)
	s.NodesShipped.Store(0)
	s.ParticlesShipped.Store(0)
	s.TasksRun.Store(0)
	s.LockWaitNanos.Store(0)
	s.Steals.Store(0)
	s.Retries.Store(0)
	s.Drops.Store(0)
}

// Add accumulates another snapshot into this one.
func (s *StatsSnapshot) Add(o StatsSnapshot) {
	s.MessagesSent += o.MessagesSent
	s.BytesSent += o.BytesSent
	s.NodeRequests += o.NodeRequests
	s.DuplicateRequests += o.DuplicateRequests
	s.Fills += o.Fills
	s.NodesShipped += o.NodesShipped
	s.ParticlesShipped += o.ParticlesShipped
	s.TasksRun += o.TasksRun
	s.LockWaitNanos += o.LockWaitNanos
	s.Steals += o.Steals
	s.Retries += o.Retries
	s.Drops += o.Drops
}

// message is an in-flight inter-process message. flow is the trace flow id
// linking the send instant to the receive dispatch (0 when tracing is off).
// enq totally orders the destination's inbox heap among equal arrival
// times; per-link arrival times are strictly increasing, so heap order
// preserves per-pair FIFO.
type message struct {
	from     int
	flow     uint64
	payload  any
	arriveAt time.Time
	enq      uint64
	pause    time.Duration // injected comm-goroutine stall before delivery
	drop     bool          // injected wire loss: discard at arrival via the audited path
	delayed  *Delayed      // cancelable self-timer (SendSelfAfter), nil otherwise
}

// linkState is the per-ordered-proc-pair wire state: the fault PRNG and
// the arrival-time clamp that keeps per-pair delivery FIFO under jitter
// and unequal message sizes now that the inbox dispatches by arrival time.
type linkState struct {
	mu         sync.Mutex
	rng        *rand.Rand // guarded by mu; nil when fault injection is off
	lastArrive time.Time  // guarded by mu
}

// Machine is the simulated distributed machine.
type Machine struct {
	cfg     Config
	procs   []*Proc
	links   []linkState  // P*P per-ordered-pair wire state
	pending atomic.Int64 // outstanding tasks + messages, for quiescence
	stop    atomic.Bool
	stopCh  chan struct{} // closed by Stop; unblocks comm goroutines and waiters
	started bool
	wg      sync.WaitGroup

	// qmu/qcond wake WaitQuiescence when pending reaches zero (or the
	// machine stops); pendingDone is the only signaler.
	qmu   sync.Mutex
	qcond *sync.Cond

	// Observability (nil / empty when cfg.Metrics is nil; tracer is
	// additionally nil when the registry does not trace).
	reg      *metrics.Registry
	tracer   *metrics.Tracer
	commMsgs []cell // P*P proc-pair message counts
	commByte []cell // P*P proc-pair byte counts
	taskNs   *metrics.Sketch
}

// cell is a cache-line-padded atomic, for the communication matrix.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// NewMachine constructs a machine; call Start before submitting work and
// Stop when finished.
func NewMachine(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg, reg: cfg.Metrics, stopCh: make(chan struct{})}
	m.qcond = sync.NewCond(&m.qmu)
	m.links = make([]linkState, cfg.Procs*cfg.Procs)
	if cfg.Faults.active() {
		for i := range m.links {
			// Golden-ratio mixing keeps link seeds distinct even for small
			// user seeds.
			//paratreet:allow(lockcheck) construction-time init, before any sender can hold link.mu
			m.links[i].rng = rand.New(rand.NewSource(int64(uint64(cfg.Faults.Seed) ^ uint64(i+1)*0x9E3779B97F4A7C15)))
		}
	}
	if m.reg != nil {
		m.commMsgs = make([]cell, cfg.Procs*cfg.Procs)
		m.commByte = make([]cell, cfg.Procs*cfg.Procs)
		m.taskNs = m.reg.Sketch(metrics.HRTTask)
		m.tracer = m.reg.Tracer()
	}
	for r := 0; r < cfg.Procs; r++ {
		m.procs = append(m.procs, newProc(m, r, cfg.WorkersPerProc))
	}
	return m
}

// Metrics returns the attached registry (nil when observability is off).
func (m *Machine) Metrics() *metrics.Registry { return m.reg }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumProcs returns the process count.
func (m *Machine) NumProcs() int { return len(m.procs) }

// Proc returns process r.
func (m *Machine) Proc(r int) *Proc { return m.procs[r] }

// Procs returns all processes.
func (m *Machine) Procs() []*Proc { return m.procs }

// Start launches all worker and communication goroutines.
func (m *Machine) Start() {
	if m.started {
		panic("rt: Machine started twice")
	}
	m.started = true
	for _, p := range m.procs {
		p.start(&m.wg)
	}
}

// Stop terminates all goroutines and unblocks any WaitQuiescence callers.
// Pending work is abandoned. Safe to call more than once.
func (m *Machine) Stop() {
	if m.stop.CompareAndSwap(false, true) {
		close(m.stopCh)
		// Wake quiescence waiters: they re-check the stop flag under qmu.
		m.qmu.Lock()
		m.qcond.Broadcast()
		m.qmu.Unlock()
	}
	m.wg.Wait()
}

// WaitQuiescence blocks until no tasks are queued or running and no
// messages are in flight — or the machine is stopped, so a concurrent Stop
// never strands a waiter. Submit initial work before calling it. When the
// attached registry traces, the wait is recorded as a barrier span on the
// machine track (proc -1); the clock reads happen only on that path.
func (m *Machine) WaitQuiescence() {
	var start time.Time
	if m.tracer != nil {
		start = time.Now()
	}
	// The zero check and the Wait both happen under qmu, and pendingDone
	// broadcasts under qmu after the counter hits zero, so the wakeup
	// cannot be lost between the check and the sleep.
	m.qmu.Lock()
	for m.pending.Load() != 0 && !m.stop.Load() {
		m.qcond.Wait()
	}
	m.qmu.Unlock()
	if m.tracer != nil {
		m.tracer.Emit(metrics.EvBarrier, "quiescence", -1, -1, 0, start, time.Since(start))
	}
}

// pendingDone retires one unit of in-flight work: a task that finished, a
// message that was dispatched, an injected drop that was recorded, or a
// canceled self-timer. It is the single audited decrement path matching
// every pending.Add(1) in Send/Submit/SendSelfAfter, so quiescence
// accounting cannot leak no matter which fate a message meets.
//
//paratreet:retires
func (m *Machine) pendingDone() {
	if m.pending.Add(-1) == 0 {
		m.qmu.Lock()
		m.qcond.Broadcast()
		m.qmu.Unlock()
	}
}

// ResetStats zeroes every process's counters, phase timers, and busy/idle
// accounting, plus the attached metrics registry and communication matrix
// (between measurement runs).
func (m *Machine) ResetStats() {
	for _, p := range m.procs {
		p.stats.reset()
		for i := range p.phases {
			p.phases[i].Store(0)
		}
		p.commBusy.Store(0)
		for _, w := range p.workers {
			w.busy.Store(0)
			w.idle.Store(0)
			w.tasks.Store(0)
		}
	}
	for i := range m.commMsgs {
		m.commMsgs[i].v.Store(0)
		m.commByte[i].v.Store(0)
	}
	m.reg.Reset()
}

// MaxBusy returns the virtual makespan since the last ResetStats: the
// largest per-worker (or per-communication-goroutine) busy time. On a host
// with fewer physical cores than simulated workers, wall time cannot show
// parallel speedup; MaxBusy is the runtime the same execution would take
// if every simulated worker had its own core, with all contention effects
// (lock waits, duplicated work, serialization) still included because they
// happen inside task execution.
func (m *Machine) MaxBusy() time.Duration {
	var max int64
	for _, p := range m.procs {
		if b := p.commBusy.Load(); b > max {
			max = b
		}
		for _, w := range p.workers {
			if b := w.busy.Load(); b > max {
				max = b
			}
		}
	}
	return time.Duration(max)
}

// TotalBusy sums busy time across all workers and communication
// goroutines since the last ResetStats.
func (m *Machine) TotalBusy() time.Duration {
	var total int64
	for _, p := range m.procs {
		total += p.commBusy.Load()
		for _, w := range p.workers {
			total += w.busy.Load()
		}
	}
	return time.Duration(total)
}

// TotalStats sums counters across processes.
func (m *Machine) TotalStats() StatsSnapshot {
	var total StatsSnapshot
	for _, p := range m.procs {
		total.Add(p.stats.Snapshot())
	}
	return total
}

// PhaseTotals sums per-phase time across all processes' workers.
func (m *Machine) PhaseTotals() [NumPhases]time.Duration {
	var out [NumPhases]time.Duration
	for _, p := range m.procs {
		for i := range p.phases {
			out[i] += time.Duration(p.phases[i].Load())
		}
	}
	return out
}

// PhasePerProc returns each process's summed per-phase worker time, in
// rank order — the inputs to a per-phase load-imbalance report
// (lb.Imbalance of one phase's column).
func (m *Machine) PhasePerProc() [][NumPhases]time.Duration {
	out := make([][NumPhases]time.Duration, len(m.procs))
	for r, p := range m.procs {
		for i := range p.phases {
			out[r][i] = time.Duration(p.phases[i].Load())
		}
	}
	return out
}

// MetricsSnapshot captures the full observability snapshot: every
// registry instrument plus the machine's own accounting — per-phase
// times, per-worker busy/idle/task profiles (the comm goroutine appears
// as worker -1), the proc-pair communication matrix, and the Stats
// counters under an "rt." prefix (derived by reflection from
// StatsSnapshot, so new Stats fields are exported automatically).
// Returns nil when no registry is attached.
func (m *Machine) MetricsSnapshot() *metrics.Snapshot {
	if m.reg == nil {
		return nil
	}
	s := m.reg.Snapshot()
	s.PhasesNs = map[string]int64{}
	for ph, d := range m.PhaseTotals() {
		s.PhasesNs[Phase(ph).String()] = int64(d)
	}
	for _, p := range m.procs {
		s.Workers = append(s.Workers, metrics.WorkerUtil{
			Proc: p.rank, Worker: -1, BusyNs: p.commBusy.Load(),
		})
		for _, w := range p.workers {
			s.Workers = append(s.Workers, metrics.WorkerUtil{
				Proc:   p.rank,
				Worker: w.id,
				BusyNs: w.busy.Load(),
				IdleNs: w.idle.Load(),
				Tasks:  w.tasks.Load(),
			})
		}
	}
	nprocs := len(m.procs)
	for from := 0; from < nprocs; from++ {
		for to := 0; to < nprocs; to++ {
			i := from*nprocs + to
			if n := m.commMsgs[i].v.Load(); n > 0 {
				s.Comm = append(s.Comm, metrics.CommEdge{
					From: from, To: to, Messages: n, Bytes: m.commByte[i].v.Load(),
				})
			}
		}
	}
	total := reflect.ValueOf(m.TotalStats())
	for i := 0; i < total.NumField(); i++ {
		s.Counters["rt."+snakeCase(total.Type().Field(i).Name)] = total.Field(i).Int()
	}
	return s
}

// snakeCase converts an exported Go field name to snake_case.
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Proc is one simulated process: W workers, an inbox served by a dedicated
// communication goroutine, counters, and phase timers.
type Proc struct {
	machine *Machine
	rank    int
	workers []*worker

	inboxMu  sync.Mutex
	inbox    msgHeap       // guarded by inboxMu; min-heap by (arriveAt, enq)
	enqSeq   uint64        // guarded by inboxMu; heap tiebreak counter
	inboxNew chan struct{} // capacity-1 nudge: inbox gained a message

	dispatcher atomic.Pointer[func(from int, payload any)]

	// predispatch buffers messages that arrive before SetDispatcher
	// installs a handler; they still hold their quiescence pending unit,
	// so nothing is silently lost.
	preMu       sync.Mutex
	predispatch []message // guarded by preMu

	stats    Stats
	phases   [NumPhases]atomic.Int64
	commBusy atomic.Int64

	// Blob is an arbitrary per-proc attachment for higher layers (the
	// software cache, partitions, subtrees). rt does not touch it.
	Blob any
}

func newProc(m *Machine, rank, nworkers int) *Proc {
	p := &Proc{machine: m, rank: rank, inboxNew: make(chan struct{}, 1)}
	for w := 0; w < nworkers; w++ {
		p.workers = append(p.workers, &worker{proc: p, id: w, wake: make(chan struct{}, 1)})
	}
	return p
}

// Rank returns the process's rank.
func (p *Proc) Rank() int { return p.rank }

// NumWorkers returns the worker count.
func (p *Proc) NumWorkers() int { return len(p.workers) }

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.machine }

// Stats returns the process's counters.
func (p *Proc) Stats() *Stats { return &p.stats }

// Metrics returns the machine's registry (nil when observability is off).
// Higher layers (cache, traverse) resolve their instruments through it at
// construction time.
func (p *Proc) Metrics() *metrics.Registry { return p.machine.reg }

// AddPhase accrues d into the process's phase timer.
func (p *Proc) AddPhase(ph Phase, d time.Duration) {
	p.phases[ph].Add(int64(d))
}

// PhaseSince accrues the time since start into phase ph and, when the
// attached registry traces, records a phase span for it. Use it in place
// of the AddPhase(ph, time.Since(start)) idiom so timed slices reach the
// trace. Phase spans carry worker -1; the trace analyzer re-attributes
// them to workers by containment in the task span that executed them.
func (p *Proc) PhaseSince(ph Phase, start time.Time) {
	d := time.Since(start)
	p.phases[ph].Add(int64(d))
	p.machine.tracer.Emit(metrics.EvPhase, ph.String(), p.rank, -1, 0, start, d)
}

// TimePhase runs fn, attributing its wall time to phase ph.
func (p *Proc) TimePhase(ph Phase, fn func()) {
	start := time.Now()
	fn()
	p.PhaseSince(ph, start)
}

// SetDispatcher installs the message handler, called on the communication
// goroutine for every arriving message. The handler must not block on
// sends (Send never blocks) and should offload heavy work via Submit.
// Messages that arrived before any dispatcher was installed are buffered;
// installing the first dispatcher re-queues them for dispatch on the
// communication goroutine in their original arrival order.
func (p *Proc) SetDispatcher(fn func(from int, payload any)) {
	p.preMu.Lock()
	p.dispatcher.Store(&fn)
	buffered := p.predispatch
	p.predispatch = nil
	p.preMu.Unlock()
	if len(buffered) == 0 {
		return
	}
	// Re-queue with original enq numbers: the heap replays them before any
	// newer message with the same arrival time.
	p.inboxMu.Lock()
	for _, msg := range buffered {
		p.inbox.push(msg)
	}
	p.inboxMu.Unlock()
	p.notifyInbox()
}

// Send delivers payload to process `to`, accounting bytes for bandwidth
// and statistics. Sending never blocks. Messages between a pair of
// processes arrive in order. When tracing, the post is recorded as a
// send instant whose flow id the receiving dispatch repeats, giving the
// timeline a send→recv arrow; the instant reuses the clock read Send
// already takes for the arrival time.
//
// When fault injection is active, Send sees only delay faults (jitter,
// delivery pauses): the message itself is delivered exactly once, because
// nothing above Send retries it.
func (p *Proc) Send(to int, payload any, bytes int) {
	p.send(to, payload, bytes, false)
}

// SendLossy is Send for traffic protected by an application-level retry
// protocol: under fault injection the message may additionally be dropped
// or duplicated. The cache fetch path (requests and fills) opts in; bucket
// shipping and raw traffic stay loss-free because nothing above them
// re-sends.
func (p *Proc) SendLossy(to int, payload any, bytes int) {
	p.send(to, payload, bytes, true)
}

// send acquires one pending unit per enqueued copy (two under wire-level
// duplication); each unit is retired when deliver dispatches, drops, or
// buffers that copy.
//
//paratreet:acquires-pending
func (p *Proc) send(to int, payload any, bytes int, lossy bool) {
	m := p.machine
	if m.commMsgs != nil {
		i := p.rank*len(m.procs) + to
		m.commMsgs[i].v.Add(1)
		m.commByte[i].v.Add(int64(bytes))
	}
	tr := m.tracer
	now := time.Now()
	var flow uint64
	if tr != nil {
		flow = tr.NextFlow()
		tr.Emit(metrics.EvMsgSend, "send", p.rank, -1, flow, now, 0)
	}
	// Self-sends and cross-proc sends count identically, so TotalStats
	// always agrees with the communication matrix (which already included
	// self-edges).
	p.stats.MessagesSent.Add(1)
	p.stats.BytesSent.Add(int64(bytes))
	if to == p.rank {
		// Local "message": dispatch through the same path, zero latency,
		// never faulted.
		m.pending.Add(1)
		p.enqueueMessage(message{from: p.rank, flow: flow, payload: payload, arriveAt: now})
		return
	}
	cfg := m.cfg
	base := cfg.Latency + time.Duration(bytes)*cfg.PerByte
	msg := message{from: p.rank, flow: flow, payload: payload}
	dup := false
	link := &m.links[p.rank*len(m.procs)+to]
	link.mu.Lock()
	if f := cfg.Faults; link.rng != nil {
		// Fixed draw schedule per send, so each link's fault sequence is a
		// function of seed and send order alone: lossy messages always
		// consume the drop and dup draws, every message consumes the
		// jitter and pause draws its knobs enable.
		if lossy {
			msg.drop = f.DropProb > 0 && link.rng.Float64() < f.DropProb
			dup = !msg.drop && f.DupProb > 0 && link.rng.Float64() < f.DupProb
			if msg.drop && f.DupProb > 0 {
				link.rng.Float64()
			}
		}
		if f.JitterMax > 0 {
			base += time.Duration(link.rng.Int63n(int64(f.JitterMax)))
		}
		if f.PauseProb > 0 && f.PauseMax > 0 && link.rng.Float64() < f.PauseProb {
			msg.pause = time.Duration(link.rng.Int63n(int64(f.PauseMax)))
		}
	}
	// Strictly monotone per-link arrival clamp: the destination heap
	// dispatches by arrival time, so same-pair messages must never tie or
	// reorder, whatever jitter and message sizes do to the raw latencies.
	arrive := now.Add(base)
	if !arrive.After(link.lastArrive) {
		arrive = link.lastArrive.Add(time.Nanosecond)
	}
	link.lastArrive = arrive
	link.mu.Unlock()
	msg.arriveAt = arrive

	dst := m.procs[to]
	m.pending.Add(1)
	dst.enqueueMessage(msg)
	if dup {
		// Wire-level duplicate: a second copy of the same payload and flow,
		// carrying its own pending unit. The receiver's protocol (idempotent
		// cache fills) must tolerate it.
		copyMsg := msg
		copyMsg.pause = 0
		m.pending.Add(1)
		dst.enqueueMessage(copyMsg)
	}
}

// SendSelfAfter schedules payload to arrive on this process's own
// dispatcher after delay, holding one quiescence pending unit until the
// message is dispatched or canceled. The cache uses it for fetch retry
// deadlines: an armed deadline keeps WaitQuiescence from declaring
// quiescence while a lost fetch would otherwise leave parked traversals
// stranded with no pending work anywhere.
//
//paratreet:acquires-pending
func (p *Proc) SendSelfAfter(delay time.Duration, payload any) *Delayed {
	d := &Delayed{m: p.machine}
	p.machine.pending.Add(1)
	p.enqueueMessage(message{from: p.rank, payload: payload, arriveAt: time.Now().Add(delay), delayed: d})
	return d
}

// Delayed is the handle to a SendSelfAfter message. Exactly one of
// delivery and Cancel retires the message's pending unit; the state CAS
// decides the winner.
type Delayed struct {
	m     *Machine
	state atomic.Int32 // 0 armed, 1 delivered, 2 canceled
}

// Cancel stops the delayed message if it has not yet been dispatched,
// retiring its pending unit immediately; the dead entry is discarded when
// the communication goroutine reaches it. Returns false when the message
// already dispatched (or was canceled earlier).
//
//paratreet:retires
func (d *Delayed) Cancel() bool {
	if d.state.CompareAndSwap(0, 2) {
		d.m.pendingDone()
		return true
	}
	//paratreet:allow(pendingbalance) CAS loser: the dispatch path already retired this unit
	return false
}

func (p *Proc) enqueueMessage(msg message) {
	p.inboxMu.Lock()
	msg.enq = p.enqSeq
	p.enqSeq++
	p.inbox.push(msg)
	p.inboxMu.Unlock()
	p.notifyInbox()
}

// notifyInbox nudges the communication goroutine without blocking; the
// capacity-1 channel coalesces bursts.
func (p *Proc) notifyInbox() {
	select {
	case p.inboxNew <- struct{}{}:
	default:
	}
}

// Submit enqueues task on the currently least busy worker of this process
// (the paper's placement policy for remote fill handling): a parked worker
// if there is one — an empty queue alone does not mean idle, its owner may
// be deep in a long task — else the shortest queue.
//
//paratreet:hotpath
func (p *Proc) Submit(task func()) {
	best := 0
	bestLen := int64(1 << 62)
	for i, w := range p.workers {
		if w.parked.Load() {
			best = i
			break
		}
		if l := w.qlen.Load(); l < bestLen {
			best, bestLen = i, l
		}
	}
	p.submitShared(best, task)
}

// SubmitTo enqueues task on a specific worker. Directed tasks are never
// stolen by siblings, so tasks sent to one worker serialize.
//
//paratreet:hotpath
//paratreet:acquires-pending
func (p *Proc) SubmitTo(workerID int, task func()) {
	p.machine.pending.Add(1)
	p.workers[workerID].push(task, true)
}

// submitShared enqueues a stealable task on the given worker.
//
//paratreet:hotpath
//paratreet:acquires-pending
func (p *Proc) submitShared(workerID int, task func()) {
	p.machine.pending.Add(1)
	p.workers[workerID].push(task, false)
}

func (p *Proc) start(wg *sync.WaitGroup) {
	wg.Add(1)
	go p.commLoop(wg)
	for _, w := range p.workers {
		wg.Add(1)
		go w.run(wg)
	}
}

// commLoop receives messages, honors simulated arrival times, and invokes
// the dispatcher. This goroutine is the analogue of the communication
// thread of an SMP rank. The inbox is a min-heap on arrival time, so an
// undelivered message with a long latency never blocks already-arrived
// messages from other senders; the loop sleeps only until the earliest
// arrival and re-evaluates whenever a new message lands.
func (p *Proc) commLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	m := p.machine
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	//paratreet:allow(pendingbalance) each iteration retires the unit of the one message it delivers
	for {
		p.inboxMu.Lock()
		if p.inbox.len() == 0 {
			p.inboxMu.Unlock()
			select {
			case <-p.inboxNew:
			case <-m.stopCh:
				return
			}
			continue
		}
		msg := p.inbox.peek()
		if wait := time.Until(msg.arriveAt); wait > 0 {
			p.inboxMu.Unlock()
			// Drain a stale expiry before rearming, then wait for whichever
			// comes first: the head's arrival, a new (possibly earlier)
			// message, or shutdown.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-p.inboxNew:
			case <-timer.C:
			case <-m.stopCh:
				return
			}
			continue
		}
		p.inbox.pop()
		p.inboxMu.Unlock()
		p.deliver(msg)
	}
}

// deliver dispatches one arrived message on the communication goroutine:
// canceled self-timers are discarded, injected pauses stall the goroutine,
// injected drops are recorded and retired through the audited path, and
// messages arriving before SetDispatcher are buffered rather than lost.
//
//paratreet:retires
func (p *Proc) deliver(msg message) {
	m := p.machine
	if msg.delayed != nil && !msg.delayed.state.CompareAndSwap(0, 1) {
		//paratreet:allow(pendingbalance) CAS loser: Cancel already retired this unit
		return
	}
	if msg.pause > 0 {
		time.Sleep(msg.pause)
	}
	if msg.drop {
		p.stats.Drops.Add(1)
		if tr := m.tracer; tr != nil {
			tr.Emit(metrics.EvDrop, "drop", p.rank, -1, msg.flow, time.Now(), 0)
		}
		m.pendingDone()
		return
	}
	fn := p.dispatcher.Load()
	if fn == nil {
		p.preMu.Lock()
		// Re-check under preMu: SetDispatcher stores the handler while
		// holding it, so a message can never slip into the buffer after the
		// drain.
		if fn = p.dispatcher.Load(); fn == nil {
			p.predispatch = append(p.predispatch, msg)
			p.preMu.Unlock()
			//paratreet:allow(pendingbalance) the unit stays with the buffered message until the drain delivers it
			return
		}
		p.preMu.Unlock()
	}
	dispatchStart := time.Now()
	(*fn)(msg.from, msg.payload)
	d := time.Since(dispatchStart)
	p.commBusy.Add(int64(d))
	m.tracer.Emit(metrics.EvMsgRecv, "recv", p.rank, -1, msg.flow, dispatchStart, d)
	m.pendingDone()
}

// msgHeap is a binary min-heap of in-flight messages ordered by
// (arriveAt, enq). Per-link arrival times are strictly increasing (see
// send's clamp), so heap order preserves per-sender-pair FIFO while
// letting any already-arrived message overtake a delayed one.
type msgHeap struct {
	h []message
}

func (q *msgHeap) len() int      { return len(q.h) }
func (q *msgHeap) peek() message { return q.h[0] }
func (q *msgHeap) less(i, j int) bool {
	if !q.h[i].arriveAt.Equal(q.h[j].arriveAt) {
		return q.h[i].arriveAt.Before(q.h[j].arriveAt)
	}
	return q.h[i].enq < q.h[j].enq
}

func (q *msgHeap) push(msg message) {
	q.h = append(q.h, msg)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *msgHeap) pop() message {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = message{} // release payload references
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.h) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.h) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
	return top
}

// worker is one simulated core: it drains its own queues, steals from
// siblings when idle, parks when there is nothing to steal, and accounts
// idle time. The pinned queue holds tasks directed at this specific worker
// (SubmitTo) which must never be stolen — the Sequential cache model relies
// on their serialization; the shared queue holds least-busy-placed tasks
// that siblings may steal.
type worker struct {
	proc *Proc
	id   int

	mu     sync.Mutex
	pinned []func() // guarded by mu
	queue  []func() // guarded by mu
	qlen   atomic.Int64

	// parked is set by the worker before its last look at the queues and
	// cleared by whoever wakes it (or by the worker, when that look found
	// work); wake carries the token. See run and unpark.
	parked atomic.Bool
	wake   chan struct{}

	// busy accumulates task-execution nanos, the basis of the virtual
	// makespan metric (see Machine.MaxBusy). idle and tasks feed the
	// per-worker utilization profile exported by Machine.MetricsSnapshot.
	busy  atomic.Int64
	idle  atomic.Int64
	tasks atomic.Int64
}

//paratreet:hotpath
func (w *worker) push(task func(), pin bool) {
	//paratreet:allow(hotpath) deque critical section is one append; the deliberate tradeoff of a mutex deque
	w.mu.Lock()
	if pin {
		w.pinned = append(w.pinned, task)
	} else {
		w.queue = append(w.queue, task)
	}
	w.mu.Unlock()
	w.qlen.Add(1)
	// Token after publish: the task and its count are visible before parked
	// is read, and a parking worker sets parked before its last look, so
	// one side always sees the other and a wake cannot be lost. A stealable
	// task behind a running owner wakes one parked sibling to steal it.
	if w.unpark() || pin {
		return
	}
	for _, v := range w.proc.workers {
		if v.unpark() {
			return
		}
	}
}

// unpark wakes w if it is parked. The CAS elects one waker per park, so a
// burst of pushes costs one channel send and Submit sees the worker as
// taken at once; the send cannot block because only a token left over from
// a park that found work on its last look can occupy the slot, and that
// token wakes the worker just as well.
//
//paratreet:hotpath
func (w *worker) unpark() bool {
	if !w.parked.Load() || !w.parked.CompareAndSwap(true, false) {
		return false
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return true
}

// pop takes from the front of the own queues (FIFO for fairness), pinned
// tasks first.
//
//paratreet:hotpath
func (w *worker) pop() func() {
	//paratreet:allow(hotpath) deque critical section is one slice pop; the deliberate tradeoff of a mutex deque
	w.mu.Lock()
	if len(w.pinned) > 0 {
		t := w.pinned[0]
		w.pinned = w.pinned[1:]
		w.qlen.Add(-1)
		w.mu.Unlock()
		return t
	}
	if len(w.queue) == 0 {
		w.mu.Unlock()
		return nil
	}
	t := w.queue[0]
	w.queue = w.queue[1:]
	w.qlen.Add(-1)
	w.mu.Unlock()
	return t
}

// stealFrom takes from the back of a sibling's queue.
//
//paratreet:hotpath
func (w *worker) stealFrom(v *worker) func() {
	//paratreet:allow(hotpath) steal runs only when idle; thief holds no lock of its own while locking the victim
	v.mu.Lock()
	if len(v.queue) == 0 {
		v.mu.Unlock()
		return nil
	}
	t := v.queue[len(v.queue)-1]
	v.queue = v.queue[:len(v.queue)-1]
	v.qlen.Add(-1)
	v.mu.Unlock()
	return t
}

//paratreet:hotpath
func (w *worker) next() func() {
	if t := w.pop(); t != nil {
		return t
	}
	// Steal from the longest sibling queue.
	var victim *worker
	var vlen int64
	for _, v := range w.proc.workers {
		if v == w {
			continue
		}
		if l := v.qlen.Load(); l > vlen {
			victim, vlen = v, l
		}
	}
	if victim != nil {
		if t := w.stealFrom(victim); t != nil {
			w.proc.stats.Steals.Add(1)
			return t
		}
	}
	return nil
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	m := w.proc.machine
	// tracer is resolved once per worker lifetime; the per-task emits below
	// reuse the clock reads the loop already takes for busy/idle accounting,
	// so the tracing-off cost is one nil check per task or idle gap.
	tr := m.tracer
	idleSince := time.Time{}
	//paratreet:allow(pendingbalance) each iteration retires the unit of the one task it runs
	for !m.stop.Load() {
		t := w.next()
		if t == nil {
			if idleSince.IsZero() {
				idleSince = time.Now()
			}
			// Park: announce, look once more (a push that missed the
			// announcement is caught here), then block until a push or Stop
			// wakes us. Idle time is accounted when the next task arrives,
			// so utilization profiles (Fig 9) see it.
			w.parked.Store(true)
			if t = w.next(); t == nil {
				select {
				case <-w.wake:
				case <-m.stopCh:
				}
			}
			// Our own clear covers the wakes no waker's CAS paid for: the
			// look that found work, Stop, and a leftover token.
			w.parked.Store(false)
			if t == nil {
				continue
			}
		}
		if !idleSince.IsZero() {
			d := time.Since(idleSince)
			w.proc.AddPhase(PhaseIdle, d)
			w.idle.Add(int64(d))
			tr.Emit(metrics.EvIdle, "idle", w.proc.rank, w.id, 0, idleSince, d)
			idleSince = time.Time{}
		}
		taskStart := time.Now()
		t()
		dur := time.Since(taskStart)
		w.busy.Add(int64(dur))
		w.tasks.Add(1)
		m.taskNs.Observe(int64(dur))
		tr.Emit(metrics.EvTask, "task", w.proc.rank, w.id, 0, taskStart, dur)
		w.proc.stats.TasksRun.Add(1)
		m.pendingDone()
	}
}

// String implements fmt.Stringer.
func (p *Proc) String() string {
	return fmt.Sprintf("proc{rank=%d workers=%d}", p.rank, len(p.workers))
}
