package traverse

import (
	"sync"
	"sync/atomic"
	"time"

	"paratreet/internal/cache"
	"paratreet/internal/rt"
	"paratreet/internal/tree"
)

// frame is one unit of traversal work: a source node, the parent slot it
// hangs from (so a placeholder can be re-read once its fill lands), and
// the engine's share of the frame — the active-bucket list of the top-down
// and up-and-down engines, the target group of the dual engine.
type frame[D, W any] struct {
	node     *tree.Node[D]
	parent   *tree.Node[D]
	childIdx int
	work     W
}

// engine is what a traversal plugs into the scheduler.
type engine[D, W any] interface {
	// eval evaluates one frame: it may push child frames, pause on a
	// remote placeholder, or apply visitor interactions.
	eval(f frame[D, W])
	// refill pushes the next seed frames when the scheduler has run out
	// of work, and reports whether there were any left to push.
	refill() bool
	// release drops engine-owned frame storage; no frame is live.
	release()
}

// sched is the frame scheduler every engine instantiates. A traversal
// behaves like a chare: its frames execute one at a time, so visitor
// writes to bucket particles need no locks.
//
// Ownership rule: the goroutine that holds the running role — the pumper —
// owns the frame stack, the tallies and the retire count outright, and
// touches them without synchronisation; the role is handed over by the
// running CAS. The only way in from another goroutine is the inbox, where
// cache fills leave the frames they resume; the pumper drains it when its
// own stack runs dry.
type sched[D, W any] struct {
	proc   *rt.Proc
	cache  *cache.Cache[D]
	viewID int
	mx     engineMetrics
	eng    engine[D, W]
	onDone func()

	running atomic.Bool
	stack   []frame[D, W] // owned by the pumper
	// owed is how many counts of outstanding the pumper's local work
	// stands for; they retire together when the stack runs dry.
	owed int64
	// Frame tallies, flushed once per pump session.
	visits, opens, prunes, hits int64

	mu    sync.Mutex
	inbox []frame[D, W] // guarded by mu

	// outstanding is one count for the seeds plus one per frame that is
	// parked, waiting in the inbox, or drained and not yet retired. It
	// only rises while the pumper holds a count, so it reaches zero once.
	outstanding atomic.Int64

	// PausedCount counts pause events, for diagnostics.
	PausedCount atomic.Int64
	// NodesVisited counts frame evaluations.
	NodesVisited atomic.Int64
	// WorkNanos accumulates time spent processing this traversal's frames,
	// the per-partition load measurement consumed by the load balancers.
	WorkNanos atomic.Int64
}

func (s *sched[D, W]) init(proc *rt.Proc, c *cache.Cache[D], viewID int, eng engine[D, W], onDone func()) {
	s.proc, s.cache, s.viewID = proc, c, viewID
	s.mx = newEngineMetrics(proc)
	s.eng, s.onDone = eng, onDone
	s.owed = 1
	s.outstanding.Store(1)
}

// Start hands the traversal to the owning process. Under the PerThread
// cache policy the work is pinned to the view's worker; otherwise it is
// placed on the least busy worker. A traversal with nothing to do still
// completes: the seed count retires on the first pump.
func (s *sched[D, W]) Start() {
	task := func() { s.timedPump(rt.PhaseLocalTraversal) }
	if s.cache.Policy() == cache.PerThread {
		s.proc.SubmitTo(s.viewID, task)
	} else {
		s.proc.Submit(task)
	}
}

// Done reports whether every frame (including paused ones) has completed.
func (s *sched[D, W]) Done() bool { return s.outstanding.Load() == 0 }

// push adds a frame to the pumper's stack. Pumper only (or before Start).
//
//paratreet:hotpath
func (s *sched[D, W]) push(f frame[D, W]) { s.stack = append(s.stack, f) }

// timedPump runs one pump session, accruing its wall time into WorkNanos
// (the load-balancer input) and the given phase timer. Timing lives here,
// at task granularity, so the pump loop and the evaluators stay clock-free.
func (s *sched[D, W]) timedPump(ph rt.Phase) {
	start := time.Now()
	s.pump()
	s.WorkNanos.Add(int64(time.Since(start)))
	s.proc.PhaseSince(ph, start)
}

// pump takes the pumper role, if it is free, and drains the stack; a
// caller that finds the role taken leaves its frames to the holder.
//
//paratreet:hotpath
func (s *sched[D, W]) pump() {
	for s.running.CompareAndSwap(false, true) {
		for {
			for n := len(s.stack); n > 0; n = len(s.stack) {
				f := s.stack[n-1]
				s.stack = s.stack[:n-1]
				s.visits++
				s.eng.eval(f)
			}
			if !s.moreWork() {
				break
			}
		}
		s.settle()
		s.running.Store(false)
		// A fill may have delivered between the last drain and clearing
		// the role, and found it taken: look again before leaving.
		if s.inboxEmpty() {
			return
		}
	}
}

// moreWork refills a dry stack: resumed frames first, so traversals in
// progress finish before new seeds start, then the engine's next seeds.
//
//paratreet:coldpath
func (s *sched[D, W]) moreWork() bool {
	s.mu.Lock()
	n := len(s.inbox)
	s.stack = append(s.stack, s.inbox...)
	clear(s.inbox)
	s.inbox = s.inbox[:0]
	s.mu.Unlock()
	s.owed += int64(n)
	return n > 0 || s.eng.refill()
}

// deliver leaves a resumed frame for the pumper. Any goroutine.
//
//paratreet:coldpath
func (s *sched[D, W]) deliver(f frame[D, W]) {
	s.mu.Lock()
	s.inbox = append(s.inbox, f)
	s.mu.Unlock()
}

//paratreet:coldpath
func (s *sched[D, W]) inboxEmpty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inbox) == 0
}

// settle ends a pump session: the tallies go to the shared counters and
// the counts the drained work stood for retire, firing onDone at zero.
//
//paratreet:coldpath
func (s *sched[D, W]) settle() {
	s.NodesVisited.Add(s.visits)
	if m := &s.mx; m.enabled {
		m.visits.Add(m.shard, s.visits)
		m.opens.Add(m.shard, s.opens)
		m.prunes.Add(m.shard, s.prunes)
		m.hits.Add(m.shard, s.hits)
	}
	s.visits, s.opens, s.prunes, s.hits = 0, 0, 0, 0
	owed := s.owed
	s.owed = 0
	if owed > 0 && s.outstanding.Add(-owed) == 0 {
		s.eng.release()
		if s.onDone != nil {
			s.onDone()
		}
	}
}

// pause parks the frame on the placeholder's waiter list and issues the
// remote request (once per node per view); the fill hands the frame, its
// node re-read from the parent slot, to the inbox. If the fill has already
// landed the frame is retried at once. This is the miss path, so it may
// allocate the continuation and take task-granularity clock reads.
//
//paratreet:coldpath
func (s *sched[D, W]) pause(f frame[D, W]) {
	if f.parent == nil {
		// The view root is never remote.
		panic("traverse: remote node with no parent")
	}
	s.PausedCount.Add(1)
	if s.mx.enabled {
		s.mx.misses.Inc(s.mx.shard)
	}
	s.outstanding.Add(1)
	resume := func() {
		if s.mx.enabled {
			s.mx.resumes.Inc(s.mx.shard)
			s.mx.noteResume()
		}
		fresh := f
		fresh.node = f.parent.Child(f.childIdx)
		s.deliver(fresh)
		s.timedPump(rt.PhaseResume)
	}
	if s.cache.Request(s.viewID, f.node, resume) {
		if s.mx.enabled {
			s.mx.parks.Inc(s.mx.shard)
			s.mx.notePark()
		}
		return
	}
	s.outstanding.Add(-1)
	f.node = f.parent.Child(f.childIdx)
	s.push(f)
}
