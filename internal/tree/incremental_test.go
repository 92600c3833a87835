package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"paratreet/internal/particle"
	"paratreet/internal/sfc"
	"paratreet/internal/vec"
)

// requireSameTree walks two subtrees in lockstep and fails on the first
// field that differs — the bit-identity oracle for the patch tests.
func requireSameTree(t *testing.T, got, want *Node[countData], path string) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil mismatch (got %v, want %v)", path, got, want)
	}
	if got == nil {
		return
	}
	if got.Key != want.Key || got.Level != want.Level || got.Kind() != want.Kind() {
		t.Fatalf("%s: identity mismatch: got %v, want %v", path, got, want)
	}
	if got.Box != want.Box || got.NParticles != want.NParticles || got.Data != want.Data {
		t.Fatalf("%s: state mismatch: got box=%v np=%d data=%+v, want box=%v np=%d data=%+v",
			path, got.Box, got.NParticles, got.Data, want.Box, want.NParticles, want.Data)
	}
	if len(got.Particles) != len(want.Particles) {
		t.Fatalf("%s: bucket size %d, want %d", path, len(got.Particles), len(want.Particles))
	}
	for i := range got.Particles {
		if got.Particles[i] != want.Particles[i] {
			t.Fatalf("%s: bucket particle %d differs", path, i)
		}
	}
	if got.NumChildren() != want.NumChildren() {
		t.Fatalf("%s: %d children, want %d", path, got.NumChildren(), want.NumChildren())
	}
	for i := 0; i < got.NumChildren(); i++ {
		requireSameTree(t, got.Child(i), want.Child(i), fmt.Sprintf("%s/%d", path, i))
	}
}

// patchCase runs one patch scenario: build a tree over ps0, mutate a copy
// into ps1 (already re-keyed and re-sorted by the caller), patch, and
// compare against a from-scratch build over ps1.
func patchCase(t *testing.T, ps0, ps1 []particle.Particle, box vec.Box, bucket int) *PatchResult[countData] {
	t.Helper()
	cfg := BuildConfig{Type: Octree, BucketSize: bucket, MortonOrdered: true}
	old := particle.Clone(ps0)
	root := Build[countData](old, box, RootKey, 0, cfg)
	Accumulate(root, countAcc{})

	res := PatchSubtree(root, ps1, cfg, countAcc{})

	ref := particle.Clone(ps1)
	want := Build[countData](ref, box, RootKey, 0, cfg)
	Accumulate(want, countAcc{})
	requireSameTree(t, root, want, "root")

	// Every leaf must alias the new array, never the old one.
	for _, leaf := range Leaves(root, nil) {
		if len(leaf.Particles) == 0 {
			continue
		}
		p := &leaf.Particles[0]
		inNew := false
		for i := range ps1 {
			if p == &ps1[i] {
				inNew = true
				break
			}
		}
		if !inNew {
			t.Fatalf("leaf %#x still aliases the previous array", leaf.Key)
		}
	}
	return res
}

func TestPatchSubtreeNoMotion(t *testing.T) {
	box := vec.UnitBox()
	ps0 := uniformSorted(600, 42, box)
	ps1 := particle.Clone(ps0)
	res := patchCase(t, ps0, ps1, box, 8)
	if res.Changed {
		t.Error("no-motion patch reported Changed")
	}
	if len(res.DirtyLeaves) != 0 || len(res.RemovedLeafKeys) != 0 {
		t.Errorf("no-motion patch dirtied %d leaves, removed %d", len(res.DirtyLeaves), len(res.RemovedLeafKeys))
	}
	if res.ReusedLeaves == 0 {
		t.Error("no-motion patch reused no leaves")
	}
}

func TestPatchSubtreeSmallMotion(t *testing.T) {
	box := vec.UnitBox()
	for _, n := range []int{100, 600, 3000} {
		for _, movers := range []int{1, 5, n / 20} {
			t.Run(fmt.Sprintf("n=%d/movers=%d", n, movers), func(t *testing.T) {
				ps0 := uniformSorted(n, int64(n), box)
				ps1 := particle.Clone(ps0)
				rng := rand.New(rand.NewSource(int64(movers)))
				for m := 0; m < movers; m++ {
					i := rng.Intn(len(ps1))
					ps1[i].Pos = vec.V(rng.Float64(), rng.Float64(), rng.Float64())
					ps1[i].Vel = vec.V(1, 2, 3)
				}
				AssignKeys(ps1, box, sfc.MortonKey)
				res := patchCase(t, ps0, ps1, box, 8)
				if !res.Changed {
					t.Error("motion patch reported no change")
				}
				if len(res.DirtyLeaves) == 0 {
					t.Error("motion patch dirtied no leaves")
				}
			})
		}
	}
}

// TestPatchSubtreeShapeTransitions drives every structural transition:
// leaf -> internal (mass influx), internal -> leaf (drain), empty -> leaf,
// and leaf -> empty, by patching between particle sets of very different
// density in one octant.
func TestPatchSubtreeShapeTransitions(t *testing.T) {
	box := vec.UnitBox()
	rng := rand.New(rand.NewSource(9))
	// Sparse set: a handful of particles in the low octant.
	sparse := make([]particle.Particle, 4)
	for i := range sparse {
		sparse[i] = particle.Particle{
			ID:   int64(i),
			Pos:  vec.V(rng.Float64()*0.4, rng.Float64()*0.4, rng.Float64()*0.4),
			Mass: 1,
		}
	}
	// Dense set: same IDs plus many more, spread over two octants, so the
	// low region splits and the formerly empty high region gains leaves.
	dense := make([]particle.Particle, 120)
	for i := range dense {
		base := 0.0
		if i%2 == 0 {
			base = 0.55
		}
		dense[i] = particle.Particle{
			ID:   int64(i),
			Pos:  vec.V(base+rng.Float64()*0.4, base+rng.Float64()*0.4, base+rng.Float64()*0.4),
			Mass: 1,
		}
	}
	AssignKeys(sparse, box, sfc.MortonKey)
	AssignKeys(dense, box, sfc.MortonKey)

	// Grow: sparse -> dense.
	res := patchCase(t, sparse, particle.Clone(dense), box, 8)
	if !res.Changed {
		t.Error("grow patch reported no change")
	}
	// Shrink: dense -> sparse (internal nodes collapse to leaves/empties).
	res = patchCase(t, dense, particle.Clone(sparse), box, 8)
	if !res.Changed {
		t.Error("shrink patch reported no change")
	}
	if len(res.RemovedLeafKeys) == 0 {
		t.Error("shrink patch removed no leaves")
	}
}

// TestPatchSubtreePreservesRootIdentity is the cache-contract test: the
// subtree root object must survive any patch, including one that
// restructures the root itself.
func TestPatchSubtreePreservesRootIdentity(t *testing.T) {
	box := vec.UnitBox()
	ps0 := uniformSorted(300, 5, box)
	cfg := BuildConfig{Type: Octree, BucketSize: 8, MortonOrdered: true}
	root := Build[countData](particle.Clone(ps0), box, RootKey, 0, cfg)
	Accumulate(root, countAcc{})

	// Shrink to a bucket's worth: the root becomes a leaf — in place.
	ps1 := particle.Clone(ps0[:5])
	PatchSubtree(root, ps1, cfg, countAcc{})
	if root.Kind() != KindLeaf {
		t.Fatalf("root kind after drain = %v", root.Kind())
	}

	// Grow back: the same object becomes internal again, children
	// reparented to it.
	ps2 := particle.Clone(ps0)
	PatchSubtree(root, ps2, cfg, countAcc{})
	if root.Kind() != KindInternal {
		t.Fatalf("root kind after regrow = %v", root.Kind())
	}
	for i := 0; i < root.NumChildren(); i++ {
		if c := root.Child(i); c != nil && c.Parent != root {
			t.Fatalf("child %d not reparented to the patched root", i)
		}
	}
}

// TestPatchSubtreeMultiStep chains several patches over drifting
// particles, verifying bit-identity against a from-scratch build at every
// step (errors cannot accumulate silently).
func TestPatchSubtreeMultiStep(t *testing.T) {
	box := vec.UnitBox()
	cfg := BuildConfig{Type: Octree, BucketSize: 16, MortonOrdered: true}
	ps := uniformSorted(2000, 77, box)
	cur := particle.Clone(ps)
	root := Build[countData](particle.Clone(cur), box, RootKey, 0, cfg)
	Accumulate(root, countAcc{})
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 5; step++ {
		next := particle.Clone(cur)
		for m := 0; m < 20; m++ {
			i := rng.Intn(len(next))
			next[i].Pos = vec.V(rng.Float64(), rng.Float64(), rng.Float64())
		}
		AssignKeys(next, box, sfc.MortonKey)
		PatchSubtree(root, next, cfg, countAcc{})
		want := Build[countData](particle.Clone(next), box, RootKey, 0, cfg)
		Accumulate(want, countAcc{})
		requireSameTree(t, root, want, fmt.Sprintf("step%d", step))
		cur = next
	}
}
