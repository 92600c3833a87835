package traverse

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"unsafe"

	"paratreet/internal/cache"
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

// massVisitor accumulates, into every target particle's Potential, the mass
// of every particle in the universe — via node approximation when the
// source is farther than openRadius, exactly at leaves otherwise. Total
// accumulated mass must equal the universe mass regardless of the open
// criterion: the invariant all traversal tests check.
type massVisitor struct {
	rsq float64
}

func (v massVisitor) Open(source *tree.Node[countData], target *Bucket) bool {
	return source.Box.DistSq(target.Box.Center()) <= v.rsq
}

func (v massVisitor) Node(source *tree.Node[countData], target *Bucket) {
	for i := range target.Particles {
		target.Particles[i].Potential += source.Data.Mass
	}
}

func (v massVisitor) Leaf(source *tree.Node[countData], target *Bucket) {
	var m float64
	for i := range source.Particles {
		m += source.Particles[i].Mass
	}
	for i := range target.Particles {
		target.Particles[i].Potential += m
	}
}

// massDualVisitor is the dual-tree equivalent.
type massDualVisitor struct {
	rsq float64
}

func (v massDualVisitor) Cell(source *tree.Node[countData], targetBox vec.Box) CellAction {
	if source.Box.DistSq(targetBox.Center()) > v.rsq {
		return CellApprox
	}
	return CellOpenBoth
}

func (v massDualVisitor) Node(source *tree.Node[countData], target *Bucket) {
	for i := range target.Particles {
		target.Particles[i].Potential += source.Data.Mass
	}
}

func (v massDualVisitor) Leaf(source *tree.Node[countData], target *Bucket) {
	var m float64
	for i := range source.Particles {
		m += source.Particles[i].Mass
	}
	for i := range target.Particles {
		target.Particles[i].Potential += m
	}
}

// tworld is a multi-process world with one partition (bucket set) per
// process, buckets copied from the subtree leaves owned by that process.
type tworld struct {
	machine   *rt.Machine
	caches    []*cache.Cache[countData]
	buckets   [][]*Bucket
	totalMass float64
	n         int
}

func setupWorld(t *testing.T, nprocs, workers int, policy cache.Policy, n int) *tworld {
	t.Helper()
	m := rt.NewMachine(rt.Config{Procs: nprocs, WorkersPerProc: workers})
	box := vec.UnitBox()
	ps := particle.NewUniform(n, 7, box)
	tree.AssignKeys(ps, box, sfc.MortonKey)
	splits := decomp.OctSplitters(ps, box, nprocs*3)

	w := &tworld{machine: m, n: n, totalMass: particle.TotalMass(ps)}
	w.buckets = make([][]*Bucket, nprocs)
	for r := 0; r < nprocs; r++ {
		w.caches = append(w.caches, cache.New[countData](m.Proc(r), policy, tree.Octree, countCodec{}, 2))
	}
	var sums []tree.RootSummary
	local := make([][]*tree.Node[countData], nprocs)
	for i := 0; i < splits.Len(); i++ {
		owner := i % nprocs
		lo, hi := splits.Ranges[i][0], splits.Ranges[i][1]
		root := tree.Build[countData](ps[lo:hi], splits.Boxes[i], splits.Keys[i], splits.Levels[i],
			tree.BuildConfig{Type: tree.Octree, BucketSize: 8, Owner: int32(owner)})
		tree.Accumulate[countData](root, countAcc{})
		local[owner] = append(local[owner], root)
		sums = append(sums, tree.Summarize[countData](root, countCodec{}))
		// The owner's partition takes copies of this subtree's leaves as
		// its buckets (the leaf-sharing step, same-proc binding case).
		for _, leaf := range tree.Leaves(root, nil) {
			if leaf.Kind() != tree.KindLeaf {
				continue
			}
			w.buckets[owner] = append(w.buckets[owner], &Bucket{
				Key:       leaf.Key,
				Box:       leaf.Box,
				Particles: particle.Clone(leaf.Particles),
			})
		}
	}
	for r := 0; r < nprocs; r++ {
		if _, err := w.caches[r].RefreshViews(sums, local[r], countAcc{}, nil); err != nil {
			t.Fatal(err)
		}
		c := w.caches[r]
		m.Proc(r).SetDispatcher(func(from int, payload any) {
			switch msg := payload.(type) {
			case cache.RequestMsg:
				if err := c.HandleRequest(msg); err != nil {
					panic(err)
				}
			case cache.FillMsg:
				c.HandleFill(msg)
			}
		})
	}
	m.Start()
	t.Cleanup(m.Stop)
	return w
}

func (w *tworld) checkMassConservation(t *testing.T) {
	t.Helper()
	for r, bs := range w.buckets {
		for _, b := range bs {
			for i := range b.Particles {
				got := b.Particles[i].Potential
				if math.Abs(got-w.totalMass) > 1e-9 {
					t.Fatalf("proc %d bucket %#x particle %d accumulated %v, want %v",
						r, b.Key, i, got, w.totalMass)
				}
			}
		}
	}
}

func (w *tworld) resetPotentials() {
	for _, bs := range w.buckets {
		for _, b := range bs {
			for i := range b.Particles {
				b.Particles[i].Potential = 0
			}
		}
	}
}

func TestTransposedMassConservation(t *testing.T) {
	for _, rsq := range []float64{0, 0.01, 0.1, 10} {
		w := setupWorld(t, 3, 2, cache.WaitFree, 2000)
		var trs []*Traversal[countData]
		for r := 0; r < 3; r++ {
			tr := NewTopDown(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], massVisitor{rsq: rsq}, Transposed, nil)
			trs = append(trs, tr)
			tr.Start()
		}
		w.machine.WaitQuiescence()
		for r, tr := range trs {
			if !tr.Done() {
				t.Fatalf("rsq=%v proc %d traversal not done after quiescence", rsq, r)
			}
		}
		w.checkMassConservation(t)
	}
}

func TestPerBucketMassConservation(t *testing.T) {
	w := setupWorld(t, 2, 2, cache.WaitFree, 1500)
	for r := 0; r < 2; r++ {
		NewTopDown(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], massVisitor{rsq: 0.05}, PerBucket, nil).Start()
	}
	w.machine.WaitQuiescence()
	w.checkMassConservation(t)
}

func TestTransposedVisitsFewerFramesThanPerBucket(t *testing.T) {
	// The loop transposition's whole point: one frame evaluation per node
	// per partition instead of per bucket.
	run := func(style Style) int64 {
		w := setupWorld(t, 2, 2, cache.WaitFree, 3000)
		var total int64
		var trs []*Traversal[countData]
		for r := 0; r < 2; r++ {
			tr := NewTopDown(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], massVisitor{rsq: 0.05}, style, nil)
			trs = append(trs, tr)
			tr.Start()
		}
		w.machine.WaitQuiescence()
		w.checkMassConservation(t)
		for _, tr := range trs {
			total += tr.NodesVisited.Load()
		}
		return total
	}
	transposed := run(Transposed)
	perBucket := run(PerBucket)
	if transposed*2 >= perBucket {
		t.Errorf("transposed visited %d frames, per-bucket %d; expected much fewer", transposed, perBucket)
	}
}

func TestTraversalPausesOnRemote(t *testing.T) {
	w := setupWorld(t, 4, 2, cache.WaitFree, 2000)
	tr := NewTopDown(w.machine.Proc(0), w.caches[0], 0, w.buckets[0], massVisitor{rsq: 10}, Transposed, nil)
	tr.Start()
	w.machine.WaitQuiescence()
	if tr.PausedCount.Load() == 0 {
		t.Error("fully-open traversal across 4 procs should pause on remote data")
	}
	if w.machine.TotalStats().NodeRequests == 0 {
		t.Error("expected remote requests")
	}
	// Only proc 0 traversed; check its buckets alone.
	for _, b := range w.buckets[0] {
		for i := range b.Particles {
			if math.Abs(b.Particles[i].Potential-w.totalMass) > 1e-9 {
				t.Fatalf("bucket %#x particle %d accumulated %v, want %v",
					b.Key, i, b.Particles[i].Potential, w.totalMass)
			}
		}
	}
}

func TestAllCachePoliciesAgree(t *testing.T) {
	for _, policy := range []cache.Policy{cache.WaitFree, cache.XWrite, cache.SingleWorker, cache.PerThread} {
		t.Run(policy.String(), func(t *testing.T) {
			w := setupWorld(t, 2, 3, policy, 1200)
			for r := 0; r < 2; r++ {
				c := w.caches[r]
				view := c.ViewFor(r % 3)
				NewTopDown(w.machine.Proc(r), c, view, w.buckets[r], massVisitor{rsq: 0.2}, Transposed, nil).Start()
			}
			w.machine.WaitQuiescence()
			w.checkMassConservation(t)
		})
	}
}

func TestOnDoneFires(t *testing.T) {
	w := setupWorld(t, 2, 2, cache.WaitFree, 800)
	done := make(chan struct{})
	tr := NewTopDown(w.machine.Proc(0), w.caches[0], 0, w.buckets[0], massVisitor{rsq: 0.5}, Transposed, func() { close(done) })
	tr.Start()
	w.machine.WaitQuiescence()
	select {
	case <-done:
	default:
		t.Error("onDone did not fire")
	}
	if !tr.Done() {
		t.Error("Done() false after completion")
	}
}

func TestUpDownMassConservation(t *testing.T) {
	w := setupWorld(t, 3, 2, cache.WaitFree, 1500)
	for r := 0; r < 3; r++ {
		NewUpDown(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], massVisitor{rsq: 0.1}, nil).Start()
	}
	w.machine.WaitQuiescence()
	w.checkMassConservation(t)
}

func TestUpDownSingleProc(t *testing.T) {
	// Everything local: no pauses, still correct.
	w := setupWorld(t, 1, 2, cache.WaitFree, 1000)
	u := NewUpDown(w.machine.Proc(0), w.caches[0], 0, w.buckets[0], massVisitor{rsq: 0.1}, nil)
	u.Start()
	w.machine.WaitQuiescence()
	if u.PausedCount.Load() != 0 {
		t.Error("single-proc up-and-down should not pause")
	}
	w.checkMassConservation(t)
}

func TestDualMassConservation(t *testing.T) {
	for _, rsq := range []float64{0.02, 0.3} {
		w := setupWorld(t, 2, 2, cache.WaitFree, 1500)
		var duals []*Dual[countData, massDualVisitor]
		for r := 0; r < 2; r++ {
			d := NewDual(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], massDualVisitor{rsq: rsq}, 4, nil)
			duals = append(duals, d)
			d.Start()
		}
		w.machine.WaitQuiescence()
		for _, d := range duals {
			if !d.Done() {
				t.Fatal("dual traversal not done")
			}
			if d.CellCalls.Load() == 0 {
				t.Error("no cell calls")
			}
		}
		w.checkMassConservation(t)
	}
}

func TestDualPrune(t *testing.T) {
	// A visitor that prunes everything leaves potentials untouched.
	w := setupWorld(t, 1, 1, cache.WaitFree, 500)
	d := NewDual(w.machine.Proc(0), w.caches[0], 0, w.buckets[0], pruneAllVisitor{}, 4, nil)
	d.Start()
	w.machine.WaitQuiescence()
	for _, b := range w.buckets[0] {
		for i := range b.Particles {
			if b.Particles[i].Potential != 0 {
				t.Fatal("prune-all visitor touched a particle")
			}
		}
	}
}

type pruneAllVisitor struct{}

func (pruneAllVisitor) Cell(*tree.Node[countData], vec.Box) CellAction { return CellPrune }
func (pruneAllVisitor) Node(*tree.Node[countData], *Bucket)            {}
func (pruneAllVisitor) Leaf(*tree.Node[countData], *Bucket)            {}

func TestStyleStrings(t *testing.T) {
	if Transposed.String() != "transposed" || PerBucket.String() != "per-bucket" {
		t.Error("style strings")
	}
}

func TestRepeatedTraversalsSameWorld(t *testing.T) {
	// Two successive traversals over the same cached view: the second one
	// finds everything already cached (no new requests).
	w := setupWorld(t, 2, 2, cache.WaitFree, 1000)
	run := func() {
		for r := 0; r < 2; r++ {
			NewTopDown(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], massVisitor{rsq: 10}, Transposed, nil).Start()
		}
		w.machine.WaitQuiescence()
	}
	run()
	w.checkMassConservation(t)
	first := w.machine.TotalStats().NodeRequests
	w.resetPotentials()
	run()
	w.checkMassConservation(t)
	second := w.machine.TotalStats().NodeRequests
	if second != first {
		t.Errorf("second traversal issued %d new requests; cache should satisfy all", second-first)
	}
}

// TestUpDownCrossProcWorkBounded is the regression test for near-first
// child ordering: a shrinking-radius search (massVisitor with small rsq
// approximates one) must not blow up its visited-frame count when the tree
// is distributed, because remote placeholders are explored last and mostly
// pruned. Allow a generous 5x factor between 1 and 4 processes.
func TestUpDownCrossProcWorkBounded(t *testing.T) {
	visited := func(procs int) int64 {
		w := setupWorld(t, procs, 2, cache.WaitFree, 3000)
		var total int64
		var us []*Traversal[countData]
		for r := 0; r < procs; r++ {
			u := NewUpDown(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], massVisitor{rsq: 0.001}, nil)
			us = append(us, u)
			u.Start()
		}
		w.machine.WaitQuiescence()
		for _, u := range us {
			total += u.NodesVisited.Load()
		}
		return total
	}
	one := visited(1)
	four := visited(4)
	if four > one*5 {
		t.Errorf("cross-proc up-and-down visited %d frames vs %d single-proc", four, one)
	}
}

// TestUpDownTinyWorld is the regression test for the logB derivation: a
// dataset small enough that the whole tree is one leaf must not hang.
func TestUpDownTinyWorld(t *testing.T) {
	w := setupWorld(t, 1, 1, cache.WaitFree, 5)
	u := NewUpDown(w.machine.Proc(0), w.caches[0], 0, w.buckets[0], massVisitor{rsq: 10}, nil)
	u.Start()
	w.machine.WaitQuiescence()
	w.checkMassConservation(t)
}

// TestBucketSize pins Bucket inside the 112-byte allocation size class:
// every build allocates one per leaf share, so a field that pushes it past
// 112 bytes costs the next class (128) on every bucket.
func TestBucketSize(t *testing.T) {
	if got := unsafe.Sizeof(Bucket{}); got > 112 {
		t.Errorf("Bucket is %d bytes, want at most 112", got)
	}
}

// decision is one Open call: which bucket, which source node, and whether
// it opened.
type decision struct {
	bucket *Bucket
	node   uint64
	open   bool
}

// decisionVisitor opens like massVisitor and logs every decision.
type decisionVisitor struct {
	rsq float64
	log *[]decision
}

func (v decisionVisitor) Open(source *tree.Node[countData], target *Bucket) bool {
	open := source.Box.DistSq(target.Box.Center()) <= v.rsq
	*v.log = append(*v.log, decision{target, source.Key, open})
	return open
}
func (decisionVisitor) Node(*tree.Node[countData], *Bucket) {}
func (decisionVisitor) Leaf(*tree.Node[countData], *Bucket) {}

// TestUpDownKeylessBucket: a bucket with no leaf key (Key 0, as every
// ad-hoc query bucket has) is seeded at the root under NewUpDown, so its
// walk makes a per-bucket walk's decisions, in the same order. On several
// processes the views are warmed first, so no fetch reorders either walk.
func TestUpDownKeylessBucket(t *testing.T) {
	for _, procs := range []int{1, 3} {
		w := setupWorld(t, procs, 1, cache.WaitFree, 1500)
		var buckets []*Bucket
		for _, b := range w.buckets[0][:8] {
			keyless := *b
			keyless.Key = 0
			buckets = append(buckets, &keyless)
		}
		p, c := w.machine.Proc(0), w.caches[0]
		walk := func(upDown bool) []decision {
			var log []decision
			v := decisionVisitor{rsq: 0.02, log: &log}
			if upDown {
				NewUpDown(p, c, 0, buckets, v, nil).Start()
			} else {
				NewTopDown(p, c, 0, buckets, v, PerBucket, nil).Start()
			}
			w.machine.WaitQuiescence()
			return log
		}
		walk(false) // warm the view
		want := walk(false)
		got := walk(true)
		if len(got) == 0 || got[0].node != tree.RootKey {
			t.Fatalf("procs %d: first decision %+v, want one at the root", procs, got[:min(1, len(got))])
		}
		if len(got) != len(want) {
			t.Fatalf("procs %d: up-and-down made %d decisions, per-bucket %d", procs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("procs %d: decision %d is %+v, per-bucket %+v", procs, i, got[i], want[i])
			}
		}
	}
}

// packLog records a Packer's lifecycle against the traversal's visits.
type packLog struct {
	mu                    sync.Mutex
	packs, unpacks        int
	early, late, buckets  int
	unpackedAtDone, calls int
}

// packVisitor is massVisitor with the Packer hook.
type packVisitor struct {
	massVisitor
	log *packLog
}

func (v packVisitor) Open(source *tree.Node[countData], target *Bucket) bool {
	v.log.mu.Lock()
	v.log.calls++
	if v.log.packs == 0 {
		v.log.early++
	}
	if v.log.unpacks > 0 {
		v.log.late++
	}
	v.log.mu.Unlock()
	return v.massVisitor.Open(source, target)
}

func (v packVisitor) Pack(buckets []*Bucket) {
	v.log.mu.Lock()
	v.log.packs++
	v.log.buckets = len(buckets)
	v.log.mu.Unlock()
}

func (v packVisitor) Unpack([]*Bucket) {
	v.log.mu.Lock()
	v.log.unpacks++
	v.log.mu.Unlock()
}

// TestPackerLifecycle: a visitor's Pack runs once, with the traversal's
// buckets, before any visit; Unpack runs once, after the last visit and
// before onDone, in every style and with frames parked on remote data.
func TestPackerLifecycle(t *testing.T) {
	for _, style := range []Style{Transposed, PerBucket, upDown} {
		w := setupWorld(t, 4, 2, cache.WaitFree, 1500)
		logs := make([]*packLog, 4)
		for r := range logs {
			log := &packLog{}
			logs[r] = log
			onDone := func() {
				log.mu.Lock()
				log.unpackedAtDone = log.unpacks
				log.mu.Unlock()
			}
			NewTopDown(w.machine.Proc(r), w.caches[r], 0, w.buckets[r], packVisitor{massVisitor{rsq: 0.3}, log}, style, onDone).Start()
		}
		w.machine.WaitQuiescence()
		w.checkMassConservation(t)
		for r, log := range logs {
			if log.packs != 1 || log.unpacks != 1 || log.unpackedAtDone != 1 {
				t.Errorf("%v proc %d: %d packs, %d unpacks (%d by onDone), want 1, 1, 1", style, r, log.packs, log.unpacks, log.unpackedAtDone)
			}
			if log.buckets != len(w.buckets[r]) || log.early+log.late != 0 || log.calls == 0 {
				t.Errorf("%v proc %d: packed %d of %d buckets; %d visits before Pack, %d after Unpack, of %d", style, r, log.buckets, len(w.buckets[r]), log.early, log.late, log.calls)
			}
		}
	}
}
