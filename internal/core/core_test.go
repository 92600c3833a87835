package core

import (
	"testing"

	"paratreet/internal/cache"
	"paratreet/internal/decomp"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

func newWorld(t *testing.T, nprocs, workers int, cfg Config) (*rt.Machine, *World[knn.Data]) {
	t.Helper()
	m := rt.NewMachine(rt.Config{Procs: nprocs, WorkersPerProc: workers})
	w := NewWorld[knn.Data](m, cfg, knn.Accumulator{}, knn.Codec{})
	m.Start()
	t.Cleanup(m.Stop)
	return m, w
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults(4)
	if c.BucketSize != 16 || c.Partitions != 32 || c.Subtrees != 16 || c.FetchDepth != 3 {
		t.Errorf("defaults: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{BucketSize: 5, Partitions: 7, Subtrees: 3, FetchDepth: 1}.WithDefaults(4)
	if c2.BucketSize != 5 || c2.Partitions != 7 || c2.Subtrees != 3 || c2.FetchDepth != 1 {
		t.Errorf("explicit: %+v", c2)
	}
}

func TestBuildIterationCensus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tree   tree.Type
		decomp decomp.Type
	}{
		{"oct-sfc", tree.Octree, decomp.SFCMorton},
		{"oct-hilbert", tree.Octree, decomp.SFCHilbert},
		{"oct-oct", tree.Octree, decomp.Oct},
		{"oct-orb", tree.Octree, decomp.ORB},
		{"kd-sfc", tree.KD, decomp.SFCMorton},
		{"longest-orb", tree.LongestDim, decomp.ORB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, w := newWorld(t, 3, 2, Config{
				TreeType: tc.tree, DecompType: tc.decomp,
				BucketSize: 8, Partitions: 12, Subtrees: 6,
			})
			ps := particle.NewClustered(3000, 9, vec.UnitBox(), 4)
			if err := w.BuildIteration(ps); err != nil {
				t.Fatal(err)
			}
			if err := w.CheckCensus(3000); err != nil {
				t.Fatal(err)
			}
			// Every subtree root must validate.
			for _, st := range w.Subtrees {
				if err := tree.Validate(st.Root, tc.tree, 0); err != nil {
					t.Fatalf("subtree %#x: %v", st.Key, err)
				}
			}
			// Every cache view must see the whole universe at its root.
			for _, c := range w.Caches {
				root := c.Root(0)
				if root.NParticles != 3000 {
					t.Errorf("view root counts %d particles", root.NParticles)
				}
			}
		})
	}
}

func TestGatherPreservesParticles(t *testing.T) {
	_, w := newWorld(t, 2, 2, Config{BucketSize: 8, Partitions: 8, Subtrees: 4})
	ps := particle.NewUniform(1000, 10, vec.UnitBox())
	if err := w.BuildIteration(ps); err != nil {
		t.Fatal(err)
	}
	got := w.Gather(nil)
	if len(got) != 1000 {
		t.Fatalf("gathered %d", len(got))
	}
	seen := map[int64]bool{}
	for i := range got {
		if seen[got[i].ID] {
			t.Fatalf("duplicate particle %d", got[i].ID)
		}
		seen[got[i].ID] = true
	}
}

func TestPartitionPlacementAndHomes(t *testing.T) {
	m, w := newWorld(t, 4, 1, Config{BucketSize: 8, Partitions: 8, Subtrees: 4})
	ps := particle.NewUniform(500, 11, vec.UnitBox())
	if err := w.BuildIteration(ps); err != nil {
		t.Fatal(err)
	}
	// Default block placement: two partitions per proc.
	for r := 0; r < 4; r++ {
		if got := len(w.PartitionsOn(r)); got != 2 {
			t.Errorf("proc %d hosts %d partitions, want 2", r, got)
		}
	}
	// Override placement.
	homes := []int{0, 0, 0, 0, 1, 1, 1, 1}
	if err := w.SetHomes(homes); err != nil {
		t.Fatal(err)
	}
	if err := w.BuildIteration(w.Gather(nil)); err != nil {
		t.Fatal(err)
	}
	if len(w.PartitionsOn(0)) != 4 || len(w.PartitionsOn(2)) != 0 {
		t.Error("SetHomes not honored")
	}
	// Bad homes rejected.
	if err := w.SetHomes([]int{0}); err == nil {
		t.Error("short homes should error")
	}
	if err := w.SetHomes([]int{0, 0, 0, 0, 1, 1, 1, 9}); err == nil {
		t.Error("out-of-range home should error")
	}
	_ = m
}

func TestSplitBucketsBoundAndLeafShareTime(t *testing.T) {
	_, w := newWorld(t, 4, 2, Config{
		TreeType: tree.Octree, DecompType: decomp.SFCMorton,
		BucketSize: 16, Partitions: 16, Subtrees: 8,
	})
	ps := particle.NewUniform(8000, 12, vec.UnitBox())
	if err := w.BuildIteration(ps); err != nil {
		t.Fatal(err)
	}
	// "Because particles are generally assigned to Partitions spatially and
	// there are many buckets to a Partition, only a few buckets will need
	// to be split" — at most one boundary bucket per partition border.
	totalBuckets := 0
	for _, p := range w.Partitions {
		totalBuckets += len(p.Buckets())
	}
	if w.SplitBuckets > 2*16 {
		t.Errorf("%d split buckets of %d total", w.SplitBuckets, totalBuckets)
	}
	if w.LeafShareTime <= 0 {
		t.Error("leaf share time not measured")
	}
	if w.BuildTime <= 0 {
		t.Error("build time not measured")
	}
}

func TestBucketsBelongToPartitionsSpatially(t *testing.T) {
	_, w := newWorld(t, 2, 1, Config{
		TreeType: tree.Octree, DecompType: decomp.SFCMorton,
		BucketSize: 8, Partitions: 6, Subtrees: 4,
	})
	ps := particle.NewUniform(2000, 13, vec.UnitBox())
	if err := w.BuildIteration(ps); err != nil {
		t.Fatal(err)
	}
	for pi, p := range w.Partitions {
		for _, b := range p.Buckets() {
			for i := range b.Particles {
				if int(b.Particles[i].Partition) != pi {
					t.Fatalf("partition %d bucket %#x holds particle assigned to %d",
						pi, b.Key, b.Particles[i].Partition)
				}
				if !b.Box.Pad(1e-12).Contains(b.Particles[i].Pos) {
					t.Fatalf("bucket %#x does not contain its particle", b.Key)
				}
			}
		}
	}
}

func TestCrossProcLeafSharingUsesMessages(t *testing.T) {
	// Partition decomposition by ORB against an octree with SFC-ordered
	// subtrees guarantees mismatched placements, so some buckets must ship.
	m, w := newWorld(t, 4, 1, Config{
		TreeType: tree.Octree, DecompType: decomp.ORB,
		BucketSize: 8, Partitions: 16, Subtrees: 8,
	})
	ps := particle.NewClustered(4000, 14, vec.UnitBox(), 3)
	if err := w.BuildIteration(ps); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckCensus(4000); err != nil {
		t.Fatal(err)
	}
	if m.TotalStats().MessagesSent == 0 {
		t.Error("mismatched decompositions should ship buckets across procs")
	}
}

func TestRepeatedIterations(t *testing.T) {
	_, w := newWorld(t, 2, 2, Config{BucketSize: 8, Partitions: 8, Subtrees: 4})
	ps := particle.NewUniform(1500, 15, vec.UnitBox())
	for it := 0; it < 3; it++ {
		if err := w.BuildIteration(ps); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		if err := w.CheckCensus(1500); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		ps = w.Gather(ps)
		if len(ps) != 1500 {
			t.Fatalf("iteration %d gathered %d", it, len(ps))
		}
	}
}

func TestSingleProcWorld(t *testing.T) {
	m, w := newWorld(t, 1, 1, Config{BucketSize: 4, Partitions: 2, Subtrees: 2})
	ps := particle.NewUniform(100, 16, vec.UnitBox())
	if err := w.BuildIteration(ps); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckCensus(100); err != nil {
		t.Fatal(err)
	}
	if m.TotalStats().MessagesSent != 0 {
		t.Error("single proc should not send messages")
	}
}

func TestWorldConfigExposed(t *testing.T) {
	_, w := newWorld(t, 2, 1, Config{CachePolicy: cache.XWrite})
	if w.Config().CachePolicy != cache.XWrite {
		t.Error("config not preserved")
	}
	if len(w.Homes()) != w.Config().Partitions {
		t.Error("homes length mismatch")
	}
}

// TestIncrementalBuffersRotate pins the double buffer: the first build of
// a configuration that can patch leaves both arrays allocated, and every
// build after it swaps them — no build after the first allocates an array
// the size of the particle set, whether it reuses subtrees or none. A
// configuration that cannot patch keeps no second array.
func TestIncrementalBuffersRotate(t *testing.T) {
	_, w := newWorld(t, 2, 1, Config{BucketSize: 8, Partitions: 8, Subtrees: 4, Incremental: true})
	ps := particle.NewClustered(4000, 11, vec.UnitBox(), 4)
	if err := w.BuildIteration(ps); err != nil {
		t.Fatal(err)
	}
	if len(w.spare) != len(ps) || &w.spare[0] == &w.cur[0] {
		t.Fatalf("first build left no second buffer: %d particles spare", len(w.spare))
	}
	for step, wantMode := range []string{"incremental", "incremental", "scratch", "incremental"} {
		cur, spare := &w.cur[0], &w.spare[0]
		// Swap two particles across the array; they keep the universe.
		ps[10].Pos, ps[3000].Pos = ps[3000].Pos, ps[10].Pos
		if wantMode == "scratch" {
			ps[0].Pos = vec.Vec3{X: 2, Y: 2, Z: 2} // outside the universe: nothing to reuse
		}
		if err := w.BuildIteration(ps); err != nil {
			t.Fatal(err)
		}
		if got := w.BuildStats().Mode; got != wantMode {
			t.Fatalf("step %d: mode %q (%s), want %q", step, got, w.BuildStats().FallbackReason, wantMode)
		}
		if &w.cur[0] != spare || &w.spare[0] != cur {
			t.Fatalf("step %d (%s): buffers did not swap", step, wantMode)
		}
		if &w.Subtrees[0].Particles[0] != &w.cur[0] {
			t.Fatalf("step %d: subtrees do not alias the current buffer", step)
		}
	}

	_, off := newWorld(t, 2, 1, Config{BucketSize: 8, Partitions: 8, Subtrees: 4})
	for i := 0; i < 2; i++ {
		if err := off.BuildIteration(ps); err != nil {
			t.Fatal(err)
		}
	}
	if off.cur != nil || off.spare != nil {
		t.Fatal("a world that cannot patch holds a second particle array")
	}
}
