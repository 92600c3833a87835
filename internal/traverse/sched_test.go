package traverse

import (
	"sync"
	"sync/atomic"
	"testing"

	"paratreet/internal/cache"
	"paratreet/internal/tree"
)

// fakeEngine drives a bare scheduler: a frame's work is the number of child
// frames it pushes, hooks stand in for cache misses and fills.
type fakeEngine struct {
	s        *sched[countData, int]
	evals    atomic.Int64
	onEval   func(f frame[countData, int])
	onRefill func() bool
	released atomic.Int64
}

func (e *fakeEngine) eval(f frame[countData, int]) {
	e.evals.Add(1)
	for i := 0; i < f.work; i++ {
		e.s.push(frame[countData, int]{work: f.work - 1})
	}
	if e.onEval != nil {
		e.onEval(f)
	}
}

func (e *fakeEngine) refill() bool {
	if e.onRefill != nil {
		return e.onRefill()
	}
	return false
}

func (e *fakeEngine) release() { e.released.Add(1) }

// newFakeSched builds a scheduler with no process or cache behind it: pump,
// deliver and the completion count are all that run.
func newFakeSched(onDone func()) (*sched[countData, int], *fakeEngine) {
	e := &fakeEngine{}
	s := &sched[countData, int]{eng: e, onDone: onDone, owed: 1}
	s.outstanding.Store(1)
	e.s = s
	return s, e
}

// park and resume are a cache miss and its fill, minus the cache.
func (s *sched[D, W]) park() { s.outstanding.Add(1) }
func (s *sched[D, W]) resume(f frame[D, W]) {
	s.deliver(f)
	s.pump()
}

// subtree is how many frames a frame of the given work evaluates to.
func subtree(work int) int64 {
	n := int64(1)
	for i := 0; i < work; i++ {
		n += subtree(work - 1)
	}
	return n
}

// TestResumeDuringDrain parks frames from inside the pump and resumes them
// from other goroutines while the pumper is still draining its stack: every
// resumed frame must be evaluated and onDone must fire once, after them.
func TestResumeDuringDrain(t *testing.T) {
	const parks, iterations = 16, 300
	for it := 0; it < iterations; it++ {
		var done atomic.Int64
		var evalsAtDone int64
		var e *fakeEngine
		s, e := newFakeSched(func() {
			done.Add(1)
			evalsAtDone = e.evals.Load()
		})
		var fills sync.WaitGroup
		parked := 0
		e.onEval = func(f frame[countData, int]) {
			if f.work == 3 && parked < parks {
				parked++
				s.park()
				fills.Add(1)
				go func() {
					defer fills.Done()
					s.resume(frame[countData, int]{work: 2})
				}()
			}
		}
		s.push(frame[countData, int]{work: 5})
		s.pump()
		fills.Wait()
		want := subtree(5) + parks*subtree(2)
		if got := e.evals.Load(); got != want {
			t.Fatalf("iteration %d: %d frames evaluated, want %d", it, got, want)
		}
		if done.Load() != 1 || evalsAtDone != want || e.released.Load() != 1 || !s.Done() {
			t.Fatalf("iteration %d: onDone fired %d times at %d of %d evaluations, released %d",
				it, done.Load(), evalsAtDone, want, e.released.Load())
		}
	}
}

// TestResumeAfterLastDrain delivers a frame after the pumper has found both
// its stack and the inbox empty but before it gives up the role, from a
// deliverer that finds the role taken: the pumper's re-check must pick the
// frame up.
func TestResumeAfterLastDrain(t *testing.T) {
	done := 0
	s, e := newFakeSched(func() { done++ })
	s.park()
	late := true
	e.onRefill = func() bool {
		// The stack is dry and the inbox was just drained.
		if late {
			late = false
			s.resume(frame[countData, int]{work: 1}) // its pump finds the role taken
		}
		return false
	}
	s.push(frame[countData, int]{})
	s.pump()
	if got, want := e.evals.Load(), 1+subtree(1); got != want {
		t.Fatalf("%d frames evaluated, want %d: the late delivery was lost", got, want)
	}
	if done != 1 || !s.Done() {
		t.Fatalf("onDone fired %d times, Done %v", done, s.Done())
	}
}

// TestDoneWaitsForParkedFrames lets the pumper run dry with frames still
// parked — the traversal is not done — and then resumes them all at once.
func TestDoneWaitsForParkedFrames(t *testing.T) {
	const parks = 32
	for it := 0; it < 100; it++ {
		var done atomic.Int64
		s, e := newFakeSched(func() { done.Add(1) })
		for i := 0; i < parks; i++ {
			s.park()
		}
		s.push(frame[countData, int]{work: 2})
		s.pump()
		if s.Done() || done.Load() != 0 {
			t.Fatal("done with parked frames outstanding")
		}
		var fills sync.WaitGroup
		for i := 0; i < parks; i++ {
			fills.Add(1)
			go func() {
				defer fills.Done()
				s.resume(frame[countData, int]{work: 1})
			}()
		}
		fills.Wait()
		if got, want := e.evals.Load(), subtree(2)+parks*subtree(1); got != want {
			t.Fatalf("%d frames evaluated, want %d", got, want)
		}
		if done.Load() != 1 || !s.Done() {
			t.Fatalf("onDone fired %d times", done.Load())
		}
	}
}

// recordingVisitor logs the per-pair calls the adapter makes.
type recordingVisitor struct{ log *[]string }

func (v recordingVisitor) Open(n *tree.Node[countData], b *Bucket) bool {
	*v.log = append(*v.log, "open")
	return b.Key%2 == 0
}
func (v recordingVisitor) Node(*tree.Node[countData], *Bucket) { *v.log = append(*v.log, "node") }
func (v recordingVisitor) Leaf(*tree.Node[countData], *Bucket) { *v.log = append(*v.log, "leaf") }

// TestPerPairAdapter pins the adapter to the Visitor contract: Open once per
// pair, Node on the pairs that do not open, Leaf on those that do at a leaf.
func TestPerPairAdapter(t *testing.T) {
	buckets := []*Bucket{{Key: 0}, {Key: 1}, {Key: 2}, {Key: 3}}
	active := []int32{3, 0, 1}
	for _, c := range []struct {
		leaf bool
		want string
	}{
		{false, "open node open open node "},
		{true, "open node open leaf open node "},
	} {
		var log []string
		sv := sourceMajor[countData](recordingVisitor{&log})
		opened := sv.VisitSource(&tree.Node[countData]{}, buckets, active, make([]int32, 0, 3), c.leaf)
		if len(opened) != 1 || opened[0] != 0 {
			t.Errorf("leaf=%v: opened %v, want [0]", c.leaf, opened)
		}
		got := ""
		for _, s := range log {
			got += s + " "
		}
		if got != c.want {
			t.Errorf("leaf=%v: calls %q, want %q", c.leaf, got, c.want)
		}
	}
}

// TestEmptyTraversalCompletes is the regression test for traversals started
// with no buckets: they used to push no frame, so onDone never fired and a
// Wave waiting on them hung.
func TestEmptyTraversalCompletes(t *testing.T) {
	w := setupWorld(t, 1, 2, cache.WaitFree, 200)
	p, c := w.machine.Proc(0), w.caches[0]
	var fired [4]atomic.Int64
	NewTopDown(p, c, 0, nil, massVisitor{rsq: 1}, Transposed, func() { fired[0].Add(1) }).Start()
	NewTopDown(p, c, 0, nil, massVisitor{rsq: 1}, PerBucket, func() { fired[1].Add(1) }).Start()
	NewUpDown(p, c, 0, nil, massVisitor{rsq: 1}, func() { fired[2].Add(1) }).Start()
	NewDual(p, c, 0, nil, massDualVisitor{rsq: 1}, 4, func() { fired[3].Add(1) }).Start()
	w.machine.WaitQuiescence()
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Errorf("empty traversal %d: onDone fired %d times, want 1", i, n)
		}
	}
}
