package gravity

import (
	"testing"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// TestLeafKernelZeroAlloc gates the steady-state allocation behavior of
// the gravity interaction kernels: with the tree built and buckets
// attached, evaluating leaf-leaf (exact pairwise) and node (multipole)
// interactions must never touch the allocator, pair by pair or through
// VisitSource on packed targets, with either kernel body.
func TestLeafKernelZeroAlloc(t *testing.T) {
	box := vec.Box{Max: vec.Vec3{X: 1, Y: 1, Z: 1}}
	src := particle.NewUniform(64, 1, box)
	dst := particle.NewUniform(32, 2, box)

	leaf := tree.NewNode[CentroidData](tree.ChildKey(tree.RootKey, 3, 3), 1, tree.KindLeaf, 0)
	leaf.Box = box.OctantBox(3)
	leaf.Particles = src
	leaf.NParticles = len(src)
	leaf.Data = Accumulator{}.FromLeaf(src, leaf.Box)

	bucket := &traverse.Bucket{Key: tree.ChildKey(tree.RootKey, 0, 3), Box: box.OctantBox(0), Particles: dst}

	v := New(DefaultParams())
	if got := testing.AllocsPerRun(200, func() { v.Leaf(leaf, bucket) }); got != 0 {
		t.Errorf("Leaf kernel: %v allocs/run, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { v.Node(leaf, bucket) }); got != 0 {
		t.Errorf("Node kernel: %v allocs/run, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { v.Open(leaf, bucket) }); got != 0 {
		t.Errorf("Open: %v allocs/run, want 0", got)
	}

	// The path a Partition's traversal runs: numbered buckets in a row
	// along x, packed once, the near ones opening and the far ones taking
	// the monopole.
	targets := &traverse.Targets{}
	var buckets []*traverse.Bucket
	active := make([]int32, 8)
	for i := range active {
		bb := vec.Box{Min: vec.V(float64(i), 0, 0), Max: vec.V(float64(i)+0.5, 0.5, 0.5)}
		ps := particle.NewUniform(16, int64(10+i), bb)
		buckets = append(buckets, &traverse.Bucket{Box: bb, Particles: ps, Targets: targets, Offset: targets.N})
		targets.N += len(ps)
		active[i] = int32(i)
	}
	opened := make([]int32, 0, len(active))
	v.Pack(buckets)
	if targets.Packed == nil {
		t.Fatal("Pack left no slab on the shared Targets")
	}
	visit := func() {
		if got := testing.AllocsPerRun(200, func() { opened = v.VisitSource(leaf, buckets, active, opened[:0], true) }); got != 0 {
			t.Errorf("VisitSource on packed targets, %s bodies: %v allocs/run, want 0", Kernels(), got)
		}
		if len(opened) == 0 || len(opened) == len(active) {
			t.Errorf("%s bodies: %d of %d buckets opened, want some of each kernel", Kernels(), len(opened), len(active))
		}
	}
	visit()
	restore := DisableKernels()
	visit()
	restore()
	v.Unpack(buckets)
}
