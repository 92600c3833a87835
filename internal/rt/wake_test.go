package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atGOMAXPROCS runs fn as a subtest at GOMAXPROCS 1 and 2: one P makes a
// push and the park it races with interleave only at preemption points, two
// make them truly concurrent. The wake protocol must hold under both.
func atGOMAXPROCS(t *testing.T, fn func(t *testing.T)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			fn(t)
		})
	}
}

// waitParked blocks until every listed worker of p is parked.
func waitParked(t *testing.T, p *Proc, ids ...int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for !p.workers[id].parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never parked", id)
			}
			runtime.Gosched()
		}
	}
}

// holdWorker0 gates worker 0 of a two-worker process inside a task, with
// nothing queued behind it, and waits for worker 1 to park. Closing the
// returned channel releases worker 0.
func holdWorker0(t *testing.T, p *Proc) (gate chan struct{}) {
	t.Helper()
	gate = make(chan struct{})
	started := make(chan struct{})
	p.SubmitTo(0, func() { close(started); <-gate })
	<-started
	waitParked(t, p, 1)
	return gate
}

// quiesce fails the test when WaitQuiescence does not return: a lost wakeup
// shows up as a task sitting in the queue of a parked worker forever.
func quiesce(t *testing.T, m *Machine, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { m.WaitQuiescence(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: WaitQuiescence hung (pending %d): a wake was lost", what, m.pending.Load())
	}
}

// TestWakeStress is the lost-wakeup stress: every round lets the workers
// drain and park, then several producers race Submit, SubmitTo and Send
// into them at once. Each round must reach quiescence with every task run.
func TestWakeStress(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		const procs, workers, producers = 2, 3, 4
		rounds := 3000
		if testing.Short() {
			rounds = 300
		}
		m := newStarted(t, procs, workers)
		var ran atomic.Int64
		task := func() { ran.Add(1) }
		for r := 0; r < procs; r++ {
			p := m.Proc(r)
			p.SetDispatcher(func(int, any) { p.Submit(task) })
		}
		var want int64
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					p := m.Proc(g % procs)
					p.Submit(task)
					p.SubmitTo((g+round)%workers, task)
					p.Send((g+1)%procs, nil, 0)
				}(g)
			}
			want += 3 * producers
			wg.Wait()
			quiesce(t, m, fmt.Sprintf("round %d", round))
			if got := ran.Load(); got != want {
				t.Fatalf("round %d: ran %d tasks, want %d", round, got, want)
			}
		}
	})
}

// TestWakeStealFromBusyVictim: a stealable task pushed behind a worker
// that is busy must be run by a parked sibling while the victim is still
// gated — no poll is left to find it otherwise.
func TestWakeStealFromBusyVictim(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		m := newStarted(t, 1, 2)
		p := m.Proc(0)
		gate := holdWorker0(t, p)
		ran := make(chan struct{})
		p.submitShared(0, func() { close(ran) })
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("stealable task behind a gated worker was not stolen by its parked sibling")
		}
		if s := p.stats.Steals.Load(); s != 1 {
			t.Errorf("Steals = %d, want 1", s)
		}
		close(gate)
		quiesce(t, m, "after gate")
	})
}

// TestSubmitPrefersParkedWorker: an empty queue is not an idle worker.
// Worker 0 is held inside a task with nothing queued behind it; Submit must
// place on parked worker 1, not on the first empty queue it sees.
func TestSubmitPrefersParkedWorker(t *testing.T) {
	m := newStarted(t, 1, 2)
	p := m.Proc(0)
	gate := holdWorker0(t, p)
	ran := make(chan struct{})
	p.Submit(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit queued behind the busy worker")
	}
	if s := p.stats.Steals.Load(); s != 0 {
		t.Errorf("Steals = %d: the task reached worker 1 by theft, not by placement", s)
	}
	if n := p.workers[1].tasks.Load(); n != 1 {
		t.Errorf("worker 1 ran %d tasks, want 1", n)
	}
	close(gate)
	quiesce(t, m, "after gate")
}

// TestStopWithAllWorkersParked: Stop must return when nothing is running
// and every worker is blocked on its wake channel.
func TestStopWithAllWorkersParked(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		m := NewMachine(Config{Procs: 2, WorkersPerProc: 3})
		m.Start()
		for _, p := range m.Procs() {
			waitParked(t, p, 0, 1, 2)
		}
		done := make(chan struct{})
		go func() { m.Stop(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop hung with every worker parked")
		}
	})
}

// TestIdleAccruesAcrossPark: the time a worker spends parked is PhaseIdle
// and worker idle time, exactly as the time it used to spend polling was,
// so rt.cpu_ms.idle and traverse.imbalance keep their meaning.
func TestIdleAccruesAcrossPark(t *testing.T) {
	m := newStarted(t, 1, 2)
	p := m.Proc(0)
	waitParked(t, p, 0, 1)
	m.ResetStats()
	const park = 30 * time.Millisecond
	time.Sleep(park)
	var wg sync.WaitGroup
	wg.Add(2)
	p.SubmitTo(0, wg.Done)
	p.SubmitTo(1, wg.Done)
	wg.Wait()
	m.WaitQuiescence()
	if idle := m.PhaseTotals()[PhaseIdle]; idle < 2*park {
		t.Errorf("PhaseIdle = %v after two workers parked %v each", idle, park)
	}
	for _, w := range p.workers {
		if d := time.Duration(w.idle.Load()); d < park {
			t.Errorf("worker %d idle = %v, want >= %v", w.id, d, park)
		}
	}
}
