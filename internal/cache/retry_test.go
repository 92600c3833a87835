package cache

import (
	"sync/atomic"
	"testing"
	"time"

	"paratreet/internal/decomp"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/sfc"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// setupFaultyWorld is setupWorld plus delivery-fault injection and the
// fetch retry protocol: the machine carries a FaultConfig and a metrics
// registry, the caches carry the retry policy, and the dispatchers route
// RetryMsg deadlines.
func setupFaultyWorld(t *testing.T, nprocs, workers int, policy Policy,
	faults *rt.FaultConfig, retry RetryPolicy, nparticles int) *world {
	t.Helper()
	m := rt.NewMachine(rt.Config{
		Procs: nprocs, WorkersPerProc: workers,
		Faults:  faults,
		Metrics: metrics.NewRegistry(metrics.Options{}),
	})
	box := vec.UnitBox()
	ps := particle.NewUniform(nparticles, 42, box)
	tree.AssignKeys(ps, box, sfc.MortonKey)
	splits := decomp.OctSplitters(ps, box, nprocs*2)
	if err := splits.Validate(len(ps), 3); err != nil {
		t.Fatal(err)
	}

	w := &world{machine: m, ps: ps, nTotal: nparticles}
	var sums []tree.RootSummary
	local := make([][]*tree.Node[countData], nprocs)
	for r := 0; r < nprocs; r++ {
		c := New[countData](m.Proc(r), policy, tree.Octree, countCodec{}, 2)
		c.SetRetry(retry)
		w.caches = append(w.caches, c)
	}
	for i := 0; i < splits.Len(); i++ {
		owner := i % nprocs
		lo, hi := splits.Ranges[i][0], splits.Ranges[i][1]
		root := tree.Build[countData](ps[lo:hi], splits.Boxes[i], splits.Keys[i], splits.Levels[i],
			tree.BuildConfig{Type: tree.Octree, BucketSize: 8, Owner: int32(owner)})
		tree.Accumulate[countData](root, countAcc{})
		local[owner] = append(local[owner], root)
		sums = append(sums, tree.Summarize[countData](root, countCodec{}))
	}
	for r := 0; r < nprocs; r++ {
		if _, err := w.caches[r].RefreshViews(sums, local[r], countAcc{}, nil); err != nil {
			t.Fatal(err)
		}
		cache := w.caches[r]
		m.Proc(r).SetDispatcher(func(from int, payload any) {
			switch msg := payload.(type) {
			case RequestMsg:
				if err := cache.HandleRequest(msg); err != nil {
					panic(err)
				}
			case FillMsg:
				cache.HandleFill(msg)
			case RetryMsg:
				cache.HandleRetry(msg)
			}
		})
	}
	m.Start()
	t.Cleanup(m.Stop)
	return w
}

// TestDuplicateFillIsIdempotent duplicates every lossy message (DupProb 1):
// each fetch is served at least twice and each fill arrives at least twice,
// yet the placeholder is swapped exactly once, the parked continuation
// resumes exactly once, and the surplus copies are counted as stale fills
// instead of panicking or double-resuming.
func TestDuplicateFillIsIdempotent(t *testing.T) {
	w := setupFaultyWorld(t, 2, 2, WaitFree,
		&rt.FaultConfig{Seed: 3, DupProb: 1}, RetryPolicy{}, 1000)
	c := w.caches[0]
	ph := firstRemote(c.Root(0))
	if ph == nil {
		t.Fatal("no placeholder")
	}
	parent, idx := ph.Parent, ph.ChildIndex(3)
	var resumes atomic.Int64
	if !c.Request(0, ph, func() { resumes.Add(1) }) {
		t.Fatal("request should park the continuation")
	}
	w.machine.WaitQuiescence()
	if got := resumes.Load(); got != 1 {
		t.Errorf("continuation resumed %d times, want exactly 1", got)
	}
	if parent.Child(idx) == ph {
		t.Fatal("placeholder not swapped")
	}
	snap := w.machine.MetricsSnapshot()
	if got := snap.Counter(metrics.CCacheStaleFills); got < 1 {
		t.Errorf("stale fills = %d, want >= 1 with every fill duplicated", got)
	}
	if got := snap.Counter(metrics.CCacheInserts); got != 1 {
		t.Errorf("inserts = %d, want exactly 1", got)
	}
}

// TestRetryRecoversDroppedFetches runs the deep-fetch walk over a link that
// drops more than half of all fetch traffic. The retry protocol must
// re-send until every fill lands: the full remote tree gets cached, the
// particle census is complete, and quiescence terminates at every step
// (dropped messages are audited, armed deadlines hold pending).
func TestRetryRecoversDroppedFetches(t *testing.T) {
	w := setupFaultyWorld(t, 3, 2, WaitFree,
		&rt.FaultConfig{Seed: 9, DropProb: 0.6},
		RetryPolicy{Timeout: 2 * time.Millisecond}, 900)
	c := w.caches[0]
	root := c.Root(0)
	for round := 0; round < 200; round++ {
		ph := firstRemote(root)
		if ph == nil {
			break
		}
		done := make(chan struct{})
		if c.Request(0, ph, func() { close(done) }) {
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("fetch never completed despite retries")
			}
		}
		w.machine.WaitQuiescence()
	}
	if firstRemote(root) != nil {
		t.Fatal("placeholders remain after exhaustive fetching over a lossy link")
	}
	if s := tree.Measure(root); s.Particles != w.nTotal {
		t.Errorf("cached tree holds %d particles, want %d", s.Particles, w.nTotal)
	}
	stats := w.machine.TotalStats()
	if stats.Drops == 0 {
		t.Error("no drops recorded with DropProb 0.6")
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded despite dropped fetch traffic")
	}
}

// TestRetryPolicyDefaults pins the derived bounds.
func TestRetryPolicyDefaults(t *testing.T) {
	if p := (RetryPolicy{}).withDefaults(); p != (RetryPolicy{}) {
		t.Errorf("zero policy gained defaults: %+v", p)
	}
	p := RetryPolicy{Timeout: time.Millisecond}.withDefaults()
	if p.MaxBackoff != 32*time.Millisecond || p.MaxAttempts != 64 {
		t.Errorf("defaults = %+v", p)
	}
}

// TestRetryBackoffGrowsAndCaps checks the deadline doubles per attempt,
// never shrinks, and respects the cap (jitter adds at most 25%).
func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{Timeout: time.Millisecond, MaxBackoff: 8 * time.Millisecond}.withDefaults()
	prevBase := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d := p.backoff(0xabcdef, attempt)
		base := p.Timeout << (attempt - 1)
		if base > p.MaxBackoff {
			base = p.MaxBackoff
		}
		if d < base || d > base+base/4 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base, base+base/4)
		}
		if base < prevBase {
			t.Errorf("attempt %d: base shrank", attempt)
		}
		prevBase = base
	}
}
