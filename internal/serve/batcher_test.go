package serve

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// echoRun is a trivial wave executor: each request maps to itself.
func echoRun(reqs []int) ([]int, error) {
	out := make([]int, len(reqs))
	copy(out, reqs)
	return out, nil
}

// gatedRun is a wave executor the test steps by hand: every wave announces
// itself on started, then blocks until the test sends it a token on gate.
// It records the batches it was given, in launch order.
type gatedRun struct {
	started chan []int
	gate    chan struct{}
	mu      sync.Mutex
	batches [][]int // guarded by mu
}

func newGatedRun() *gatedRun {
	// started holds more than any test here launches waves, so a wave the
	// test does not care to observe never blocks announcing itself.
	return &gatedRun{started: make(chan []int, 64), gate: make(chan struct{})}
}

func (g *gatedRun) run(reqs []int) ([]int, error) {
	g.mu.Lock()
	g.batches = append(g.batches, append([]int(nil), reqs...))
	g.mu.Unlock()
	g.started <- reqs
	<-g.gate
	return echoRun(reqs)
}

// ran returns every request that reached a wave.
func (g *gatedRun) ran() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var all []int
	for _, b := range g.batches {
		all = append(all, b...)
	}
	return all
}

// submitAll submits reqs from one goroutine each and returns a wait
// function that reports any failed or misrouted response.
func submitAll(t *testing.T, b *Batcher[int, int], reqs ...int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, _, err := b.Submit(r, time.Time{}); err != nil || resp != r {
				t.Errorf("Submit(%d) = %d, %v", r, resp, err)
			}
		}()
	}
	return wg.Wait
}

// TestBatcherLoneSubmitLaunches: an idle batcher launches a lone request
// at once, as a batch of one. Nothing in the batcher can fire later — a
// request stuck in the queue here would stay stuck, and the test would hang.
func TestBatcherLoneSubmitLaunches(t *testing.T) {
	b := NewBatcher[int, int](BatchConfig{MaxBatch: 100}, echoRun)
	defer b.Drain()
	resp, tm, err := b.Submit(7, time.Time{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp != 7 || tm.BatchSize != 1 {
		t.Fatalf("Submit = %d (batch %d), want 7 (batch 1)", resp, tm.BatchSize)
	}
}

// TestBatcherSizeFlush proves batches come from back-pressure and are capped
// at MaxBatch: with every wave slot held, queued requests coalesce, and one
// slot opening launches exactly one batch of min(queued, MaxBatch).
func TestBatcherSizeFlush(t *testing.T) {
	for _, tc := range []struct{ queued, want int }{{5, 5}, {8, 8}, {11, 8}} {
		const maxBatch, maxWaves = 8, 2
		g := newGatedRun()
		b := NewBatcher[int, int](BatchConfig{MaxBatch: maxBatch, MaxWaves: maxWaves, MaxQueue: 64}, g.run)
		// Fill the wave slots one lone request at a time: two submitted
		// together could share a wave and leave a slot free.
		var waitHeld [maxWaves]func()
		for i := range waitHeld {
			waitHeld[i] = submitAll(t, b, -1-i)
			<-g.started
		}
		reqs := make([]int, tc.queued)
		for i := range reqs {
			reqs[i] = i
		}
		waitQueuedDone := submitAll(t, b, reqs...)
		waitQueued(t, b, tc.queued)
		if n := b.InFlight(); n != maxWaves {
			t.Fatalf("queued %d: %d waves in flight, want %d", tc.queued, n, maxWaves)
		}
		g.gate <- struct{}{} // one slot frees
		batch := <-g.started
		if len(batch) != tc.want {
			t.Fatalf("queued %d: slot opening launched a batch of %d, want %d", tc.queued, len(batch), tc.want)
		}
		waitQueued(t, b, tc.queued-tc.want)
		if n := b.InFlight(); n != maxWaves {
			t.Fatalf("queued %d: %d waves in flight after the launch, want %d", tc.queued, n, maxWaves)
		}
		close(g.gate)
		for _, wait := range waitHeld {
			wait()
		}
		waitQueuedDone()
		b.Drain()
	}
}

// TestBatcherDeadlineExceeded proves a deadline that passes while every
// slot is held is answered at the next pump, whichever caller that is, and
// the request never reaches a wave.
func TestBatcherDeadlineExceeded(t *testing.T) {
	for _, pumpedBy := range []string{"submit", "wave completion", "drain"} {
		t.Run(pumpedBy, func(t *testing.T) {
			g := newGatedRun()
			b := NewBatcher[int, int](BatchConfig{MaxBatch: 1, MaxWaves: 1}, g.run)
			waitHeld := submitAll(t, b, 1)
			<-g.started
			// The wave slot is now held; this request's deadline expires queued.
			deadline := time.Now().Add(2 * time.Millisecond)
			errc := make(chan error, 1)
			go func() {
				_, _, err := b.Submit(2, deadline)
				errc <- err
			}()
			waitQueued(t, b, 1)
			waitCond(t, func() bool { return time.Now().After(deadline) }, "the deadline to pass")
			select {
			case err := <-errc:
				t.Fatalf("Submit(2) returned %v with no pump since it was queued", err)
			default:
			}
			var waitLater func()
			switch pumpedBy {
			case "submit":
				waitLater = submitAll(t, b, 3)
			case "wave completion":
				g.gate <- struct{}{}
			case "drain":
				go b.Drain()
			}
			if err := <-errc; !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("Submit(2) err = %v, want ErrDeadlineExceeded", err)
			}
			close(g.gate)
			waitHeld()
			if waitLater != nil {
				waitLater()
			}
			b.Drain()
			if ran := g.ran(); slices.Contains(ran, 2) {
				t.Fatalf("waves ran %v: the expired request must never reach a wave", ran)
			}
		})
	}
}

// TestBatcherOverload proves the bounded-queue fast rejection: with the
// wave slot held and the queue full, new submissions fail immediately.
func TestBatcherOverload(t *testing.T) {
	g := newGatedRun()
	b := NewBatcher[int, int](BatchConfig{MaxBatch: 1, MaxWaves: 1, MaxQueue: 2}, g.run)
	wait := submitAll(t, b, 0, 1, 2) // one in flight + two queued
	<-g.started
	waitQueued(t, b, 2)
	if _, _, err := b.Submit(99, time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit over capacity err = %v, want ErrOverloaded", err)
	}
	close(g.gate)
	wait()
	b.Drain()
}

// TestBatcherDrain proves graceful shutdown: Drain returns only after
// queued requests have gone through their waves, and intake rejects from
// the moment it begins.
func TestBatcherDrain(t *testing.T) {
	g := newGatedRun()
	b := NewBatcher[int, int](BatchConfig{MaxBatch: 16, MaxWaves: 1}, g.run)
	waitHeld := submitAll(t, b, 0)
	<-g.started
	waitRest := submitAll(t, b, 1, 2, 3)
	waitQueued(t, b, 3)
	drained := make(chan struct{})
	go func() { b.Drain(); close(drained) }()
	waitCond(t, b.Draining, "Drain to begin")
	if _, _, err := b.Submit(9, time.Time{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during Drain err = %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a wave in flight and three requests queued")
	default:
	}
	close(g.gate)
	<-drained
	waitHeld()
	waitRest()
	if ran := g.ran(); len(ran) != 4 {
		t.Errorf("drained waves ran %v, want all 4 requests", ran)
	}
	if _, _, err := b.Submit(9, time.Time{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain err = %v, want ErrDraining", err)
	}
	b.Drain() // idempotent
}

// TestBatcherExecutorShape proves a wave executor returning the wrong
// response count fails every request in the batch instead of misrouting.
func TestBatcherExecutorShape(t *testing.T) {
	b := NewBatcher[int, int](BatchConfig{MaxBatch: 1}, func(reqs []int) ([]int, error) {
		return nil, nil
	})
	defer b.Drain()
	if _, _, err := b.Submit(1, time.Time{}); err == nil {
		t.Fatal("Submit succeeded despite executor returning no responses")
	}
}

func waitQueued(t *testing.T, b *Batcher[int, int], want int) {
	t.Helper()
	waitCond(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.queue) == want
	}, "queued requests")
}

func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
