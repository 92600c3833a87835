package cache

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paratreet/internal/decomp"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/sfc"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

type countData struct {
	N    int
	Mass float64
}

type countAcc struct{}

func (countAcc) FromLeaf(ps []particle.Particle, _ vec.Box) countData {
	d := countData{N: len(ps)}
	for i := range ps {
		d.Mass += ps[i].Mass
	}
	return d
}
func (countAcc) Empty() countData { return countData{} }
func (countAcc) Add(a, b countData) countData {
	return countData{N: a.N + b.N, Mass: a.Mass + b.Mass}
}

type countCodec struct{}

func (countCodec) AppendData(dst []byte, d countData) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.N))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Mass))
}
func (countCodec) DecodeData(b []byte) (countData, int) {
	return countData{
		N:    int(binary.LittleEndian.Uint64(b)),
		Mass: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}, 16
}

// world is a small simulated machine with per-proc caches over one global
// octree, the harness all cache tests share.
type world struct {
	machine *rt.Machine
	caches  []*Cache[countData]
	ps      []particle.Particle
	nTotal  int
}

func setupWorld(t *testing.T, nprocs, workers int, policy Policy, fetchDepth, nparticles int) *world {
	t.Helper()
	m := rt.NewMachine(rt.Config{Procs: nprocs, WorkersPerProc: workers})
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
		w.caches = append(w.caches, New[countData](m.Proc(r), policy, tree.Octree, countCodec{}, fetchDepth))
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
			}
		})
	}
	m.Start()
	t.Cleanup(m.Stop)
	return w
}

// firstRemote returns some remote placeholder below the given view root.
func firstRemote(root *tree.Node[countData]) *tree.Node[countData] {
	var found *tree.Node[countData]
	tree.Walk(root, func(n *tree.Node[countData]) bool {
		if found != nil {
			return false
		}
		k := n.Kind()
		if k == tree.KindRemote || k == tree.KindRemoteLeaf {
			found = n
			return false
		}
		return true
	})
	return found
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{WaitFree, XWrite, PerThread} {
		if p.String() == "unknown" || p.String() == "" {
			t.Errorf("policy %d bad string", p)
		}
	}
	if Policy(99).String() != "unknown" {
		t.Error("unknown policy string")
	}
}

func TestViewsPerPolicy(t *testing.T) {
	w := setupWorld(t, 2, 3, WaitFree, 2, 500)
	if w.caches[0].NumViews() != 1 {
		t.Error("shared policy should have 1 view")
	}
	if w.caches[0].ViewFor(2) != 0 {
		t.Error("shared ViewFor should be 0")
	}
	w2 := setupWorld(t, 2, 3, PerThread, 2, 500)
	if w2.caches[0].NumViews() != 3 {
		t.Errorf("per-thread should have 3 views, got %d", w2.caches[0].NumViews())
	}
	if w2.caches[0].ViewFor(2) != 2 {
		t.Error("per-thread ViewFor should map to worker")
	}
}

func TestTopViewHasRemoteSummaries(t *testing.T) {
	w := setupWorld(t, 2, 2, WaitFree, 2, 1000)
	root := w.caches[0].Root(0)
	if root.NParticles != w.nTotal {
		t.Errorf("view root has %d particles, want %d", root.NParticles, w.nTotal)
	}
	if root.Data.N != w.nTotal {
		t.Errorf("view root data N=%d", root.Data.N)
	}
	if firstRemote(root) == nil {
		t.Fatal("expected remote placeholders in the view")
	}
}

func TestRequestFillSwap(t *testing.T) {
	for _, policy := range []Policy{WaitFree, XWrite, PerThread} {
		t.Run(policy.String(), func(t *testing.T) {
			w := setupWorld(t, 2, 2, policy, 2, 1000)
			c := w.caches[0]
			root := c.Root(0)
			ph := firstRemote(root)
			if ph == nil {
				t.Fatal("no placeholder")
			}
			parent := ph.Parent
			idx := ph.ChildIndex(3)
			resumed := make(chan struct{})
			if !c.Request(0, ph, func() { close(resumed) }) {
				t.Fatal("request should park the continuation")
			}
			select {
			case <-resumed:
			case <-time.After(5 * time.Second):
				t.Fatal("resume never ran")
			}
			w.machine.WaitQuiescence()
			repl := parent.Child(idx)
			if repl == ph {
				t.Fatal("placeholder not swapped")
			}
			if k := repl.Kind(); k != tree.KindCachedRemote && k != tree.KindCachedRemoteLeaf {
				t.Fatalf("replacement kind %v", k)
			}
			if repl.Key != ph.Key {
				t.Fatalf("replacement key %#x != %#x", repl.Key, ph.Key)
			}
			if repl.Data.N != repl.NParticles {
				t.Errorf("replacement data %+v, np %d", repl.Data, repl.NParticles)
			}
			stats := w.machine.TotalStats()
			if stats.NodeRequests != 1 || stats.Fills != 1 {
				t.Errorf("requests=%d fills=%d, want 1/1", stats.NodeRequests, stats.Fills)
			}
		})
	}
}

func TestRequestDeduplication(t *testing.T) {
	w := setupWorld(t, 2, 4, WaitFree, 2, 1000)
	c := w.caches[0]
	ph := firstRemote(c.Root(0))
	var resumes atomic.Int64
	var wg sync.WaitGroup
	const waiters = 16
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !c.Request(0, ph, func() { resumes.Add(1) }) {
				// Fill already published: caller proceeds inline.
				resumes.Add(1)
			}
		}()
	}
	wg.Wait()
	w.machine.WaitQuiescence()
	if got := resumes.Load(); got != waiters {
		t.Errorf("resumed %d of %d waiters", got, waiters)
	}
	// The shared cache deduplicates: exactly one request crossed the wire.
	if stats := w.machine.TotalStats(); stats.NodeRequests != 1 {
		t.Errorf("NodeRequests = %d, want 1", stats.NodeRequests)
	}
}

func TestPerThreadViewsFetchIndependently(t *testing.T) {
	const workers = 3
	w := setupWorld(t, 2, workers, PerThread, 2, 1000)
	c := w.caches[0]
	var wg sync.WaitGroup
	for v := 0; v < workers; v++ {
		ph := firstRemote(c.Root(v))
		if ph == nil {
			t.Fatalf("view %d has no placeholder", v)
		}
		wg.Add(1)
		if !c.Request(v, ph, func() { wg.Done() }) {
			wg.Done()
		}
	}
	wg.Wait()
	w.machine.WaitQuiescence()
	// Independent views: one request per view — the extra communication
	// volume of the per-thread cache.
	if stats := w.machine.TotalStats(); stats.NodeRequests != workers {
		t.Errorf("NodeRequests = %d, want %d", stats.NodeRequests, workers)
	}
}

func TestDeepFetchWalksWholeRemoteTree(t *testing.T) {
	// Repeatedly request placeholders until the entire global tree is
	// cached locally, then verify the full particle census arrives.
	w := setupWorld(t, 3, 2, WaitFree, 2, 900)
	c := w.caches[0]
	root := c.Root(0)
	for round := 0; round < 200; round++ {
		ph := firstRemote(root)
		if ph == nil {
			break
		}
		done := make(chan struct{})
		if c.Request(0, ph, func() { close(done) }) {
			<-done
		}
		w.machine.WaitQuiescence()
	}
	if firstRemote(root) != nil {
		t.Fatal("placeholders remain after exhaustive fetching")
	}
	s := tree.Measure(root)
	if s.Particles != w.nTotal {
		t.Errorf("cached tree holds %d particles, want %d", s.Particles, w.nTotal)
	}
	if err := tree.Validate(root, tree.Octree, 8); err != nil {
		t.Error(err)
	}
}

func TestXWriteCountsLockWaits(t *testing.T) {
	w := setupWorld(t, 2, 4, XWrite, 1, 2000)
	c := w.caches[0]
	root := c.Root(0)
	// Fire many concurrent requests to different placeholders.
	var phs []*tree.Node[countData]
	tree.Walk(root, func(n *tree.Node[countData]) bool {
		if n.Kind() == tree.KindRemote || n.Kind() == tree.KindRemoteLeaf {
			phs = append(phs, n)
			return false
		}
		return true
	})
	if len(phs) < 2 {
		t.Skip("not enough placeholders")
	}
	var wg sync.WaitGroup
	for _, ph := range phs {
		wg.Add(1)
		if !c.Request(0, ph, func() { wg.Done() }) {
			wg.Done()
		}
	}
	wg.Wait()
	w.machine.WaitQuiescence()
	if got := w.machine.TotalStats().Fills; got != int64(len(phs)) {
		t.Errorf("fills = %d, want %d", got, len(phs))
	}
}

func TestFindLocal(t *testing.T) {
	w := setupWorld(t, 2, 1, WaitFree, 2, 1000)
	c := w.caches[0]
	for key, root := range c.LocalRoots() {
		if got := c.FindLocal(key); got != root {
			t.Errorf("FindLocal(root %#x) = %v", key, got)
		}
		// Find a deeper node.
		if root.Kind() == tree.KindInternal {
			for i := 0; i < root.NumChildren(); i++ {
				child := root.Child(i)
				if got := c.FindLocal(child.Key); got != child {
					t.Errorf("FindLocal(child %#x) failed", child.Key)
				}
			}
		}
	}
	if c.FindLocal(0xdeadbeef) != nil {
		t.Error("FindLocal of foreign key should be nil")
	}
}

func TestReset(t *testing.T) {
	w := setupWorld(t, 2, 1, WaitFree, 2, 500)
	c := w.caches[0]
	if len(c.LocalRoots()) == 0 {
		t.Fatal("no local roots before reset")
	}
	c.Reset()
	if len(c.LocalRoots()) != 0 {
		t.Error("local roots survive reset")
	}
	if c.Root(0) != nil {
		t.Error("view root survives reset")
	}
}

func TestHandleRequestUnknownKey(t *testing.T) {
	w := setupWorld(t, 2, 1, WaitFree, 2, 100)
	err := w.caches[0].HandleRequest(RequestMsg{Key: 0xdeadbeef, Requester: 1})
	if err == nil {
		t.Error("unknown key should error")
	}
}

// TestConcurrentTraversalSimulation hammers the cache from many goroutines
// that walk the view and fetch every placeholder they encounter, verifying
// the wait-free protocol under real concurrency (run with -race).
func TestConcurrentTraversalSimulation(t *testing.T) {
	w := setupWorld(t, 4, 4, WaitFree, 2, 4000)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		c := w.caches[r]
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(c *Cache[countData]) {
				defer wg.Done()
				var walk func(n *tree.Node[countData], parent *tree.Node[countData], idx int)
				pending := make(chan struct{}, 1024)
				walk = func(n *tree.Node[countData], parent *tree.Node[countData], idx int) {
					switch n.Kind() {
					case tree.KindRemote, tree.KindRemoteLeaf:
						nn := n
						ok := c.Request(0, nn, func() {
							walk(parent.Child(idx), parent, idx)
							pending <- struct{}{}
						})
						if ok {
							<-pending
						} else {
							walk(parent.Child(idx), parent, idx)
						}
					default:
						for i := 0; i < n.NumChildren(); i++ {
							if ch := n.Child(i); ch != nil {
								walk(ch, n, i)
							}
						}
					}
				}
				root := c.Root(0)
				walk(root, nil, -1)
				s := tree.Measure(root)
				if s.Particles != w.nTotal {
					t.Errorf("walker saw %d particles, want %d", s.Particles, w.nTotal)
				}
			}(c)
		}
	}
	wg.Wait()
	w.machine.WaitQuiescence()
}
