package knn

import (
	"testing"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// TestHeapUpdateZeroAlloc gates the kNN search kernel: with heaps
// preallocated to capacity k by Attach, the heap-update path (push with
// growth, eviction, and sift) and the Open pruning test must never touch
// the allocator — including the very first pass that fills the heaps.
func TestHeapUpdateZeroAlloc(t *testing.T) {
	box := vec.Box{Max: vec.Vec3{X: 1, Y: 1, Z: 1}}
	src := particle.NewUniform(64, 3, box)
	dst := particle.NewUniform(32, 4, box)
	const k = 8

	leaf := tree.NewNode[Data](tree.ChildKey(tree.RootKey, 5, 3), 1, tree.KindLeaf, 0)
	leaf.Box = box.OctantBox(5)
	leaf.Particles = src
	leaf.NParticles = len(src)
	leaf.Data = Accumulator{}.FromLeaf(src, leaf.Box)

	bucket := &traverse.Bucket{Key: tree.ChildKey(tree.RootKey, 0, 3), Box: box.OctantBox(0), Particles: dst}
	buckets := []*traverse.Bucket{bucket}
	Attach(buckets, k)

	v := Visitor{K: k, ExcludeSelf: true}
	i := 0
	kernel := func() {
		// Shift the source cloud a little every run so distances change
		// and pushes keep exercising the eviction/sift path, not just the
		// equal-distance early return.
		i++
		delta := float64(i%7-3) * 1e-3
		for j := range src {
			src[j].Pos.X += delta
		}
		v.Leaf(leaf, bucket)
	}
	if got := testing.AllocsPerRun(200, kernel); got != 0 {
		t.Errorf("heap-update kernel: %v allocs/run, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { v.Open(leaf, bucket) }); got != 0 {
		t.Errorf("Open: %v allocs/run, want 0", got)
	}
}

// partitionBuckets cuts ps into buckets of the given sizes that share one
// Targets, numbered the way the build numbers a partition's buckets.
func partitionBuckets(targets *traverse.Targets, ps []particle.Particle, sizes ...int) []*traverse.Bucket {
	var out []*traverse.Bucket
	off := 0
	for _, n := range sizes {
		out = append(out, &traverse.Bucket{Particles: ps[off : off+n], Targets: targets, Offset: off})
		off += n
	}
	targets.N = off
	return out
}

// fill pushes one neighbour into every heap of the buckets.
func fill(buckets []*traverse.Bucket) {
	for _, b := range buckets {
		st := b.State.(*State)
		for i := range st.Heaps {
			st.Heaps[i].push(Neighbor{DistSq: 1, ID: 42})
		}
	}
}

// requireReset checks every heap of the buckets is empty with room for k.
func requireReset(t *testing.T, buckets []*traverse.Bucket, k int) {
	t.Helper()
	for bi, b := range buckets {
		st := b.State.(*State)
		if len(st.Heaps) != len(b.Particles) {
			t.Fatalf("bucket %d: %d heaps for %d particles", bi, len(st.Heaps), len(b.Particles))
		}
		for i := range st.Heaps {
			if h := st.Heaps[i]; len(h.items) != 0 || cap(h.items) < k || h.k != k {
				t.Fatalf("bucket %d heap %d: %d entries, capacity %d, k %d; want empty with room for k=%d",
					bi, i, len(h.items), cap(h.items), h.k, k)
			}
		}
	}
}

// TestAttachReuse: the heaps of a partition's buckets live in an arena
// the partition keeps (Targets.State), so a rebuild that hands Attach new
// *Bucket values over the same Targets carves the same storage again —
// one allocation per call, the State headers — and every heap comes back
// empty with room for k.
func TestAttachReuse(t *testing.T) {
	box := vec.Box{Max: vec.Vec3{X: 1, Y: 1, Z: 1}}
	ps := particle.NewUniform(40, 5, box)
	var targets traverse.Targets
	gens := [2][]*traverse.Bucket{
		partitionBuckets(&targets, ps, 16, 8, 16),
		partitionBuckets(&targets, ps, 5, 20, 15), // the rebuild: new buckets, new cut
	}
	const k = 8

	Attach(gens[0], k)
	fill(gens[0])
	a := targets.State.(*arena)
	i := 1
	if got := testing.AllocsPerRun(20, func() {
		Attach(gens[i%2], k)
		fill(gens[i%2])
		i++
	}); got > 1 {
		t.Errorf("re-Attach over new buckets: %v allocs/run, want at most 1", got)
	}
	if targets.State.(*arena) != a {
		t.Error("re-Attach replaced the partition's arena")
	}
	for _, g := range gens {
		Attach(g, k)
		requireReset(t, g, k)
	}

	// n·k under a quarter of the arena lets the larger arena go.
	Attach(gens[0], 1)
	requireReset(t, gens[0], 1)
	if a = targets.State.(*arena); len(a.items) != len(ps) {
		t.Errorf("k=1 after k=%d: arena holds %d entries for %d particles, want it released to %d",
			k, len(a.items), len(ps), len(ps))
	}
}
