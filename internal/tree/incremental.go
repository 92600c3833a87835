package tree

import "paratreet/internal/particle"

// Incremental subtree patching (Cornerstone-style temporal coherence):
// instead of rebuilding a subtree from scratch every timestep, PatchSubtree
// walks the existing tree alongside the freshly sorted particle array and
// repairs only what moved. The invariant it preserves is bit-identity: a
// patched subtree is indistinguishable — node keys, kinds, boxes, counts,
// bucket contents, and Data — from the tree Build+Accumulate would produce
// over the same sorted particles, because every decision is the build's
// own — patch and build call the same BuildConfig.shape (bucket cutoff)
// and BuildConfig.octants (split rule) and fold children in the same
// order — and clean subtrees keep Data that is a pure function of
// unchanged inputs.
//
// Node objects are mutated in place rather than replaced, so the subtree
// root's identity survives the patch. That is what lets the software cache
// keep its localRoots registrations — and, crucially, lets remote fills
// cached on other processes keep referencing this process's subtree across
// refreshes (DeserializeSubtree wires cross-subtree boundaries to the
// localRoots objects themselves).

// PatchResult reports what one PatchSubtree call changed, feeding the
// delta leaf share (which buckets to drop and re-emit) and the versioned
// cache invalidation (whether the subtree's version must bump).
type PatchResult[D any] struct {
	// Changed reports whether anything in the subtree differs from the
	// previous step — Data, structure, or bucket contents. An unchanged
	// subtree keeps its version, summary, and every bucket built from it.
	Changed bool
	// DirtyLeaves are the leaves whose buckets must be re-shared: content
	// changed in place, or the leaf is new after a structural rebuild.
	// Only non-empty KindLeaf nodes appear.
	DirtyLeaves []*Node[D]
	// RemovedLeafKeys are keys of leaves that no longer exist (their
	// region was restructured or emptied); buckets carrying these keys
	// are stale.
	RemovedLeafKeys []uint64
	// ReusedLeaves counts leaves whose particles were unchanged: their
	// buckets, Data, and (transitively) every clean ancestor's Data were
	// kept rather than recomputed.
	ReusedLeaves int
}

// PatchSubtree repairs the subtree rooted at root so it exactly matches
// what Build+Accumulate would produce for ps (sorted within the root's
// box, keys current). Leaves are re-pointed at subslices of ps — clean or
// dirty — so after the patch the subtree aliases only ps, never the
// previous step's array. Octree-only. A root that is a bare empty leaf
// has nothing to reuse: patching it is the from-scratch build, reported
// as Changed with every bucket-bearing leaf dirty.
func PatchSubtree[D any](root *Node[D], ps []particle.Particle, cfg BuildConfig, acc Accumulator[D]) *PatchResult[D] {
	b := newBuilder[D](cfg, root.Level)
	res := &PatchResult[D]{}
	res.Changed = patchNode(root, ps, b, acc, res)
	return res
}

// patchNode reconciles node n with the sorted slice ps, returning whether
// anything under n changed.
func patchNode[D any](n *Node[D], ps []particle.Particle, b *builder[D], acc Accumulator[D], res *PatchResult[D]) bool {
	switch want := b.cfg.shape(len(ps), n.Level); {
	case want != n.Kind():
		// Shape transition (leaf gained enough particles to split, an
		// internal region drained below the bucket cutoff, a leaf emptied,
		// an empty octant filled): rebuild this region from scratch and
		// graft it into the existing node object.
		res.RemovedLeafKeys = BucketLeafKeys(n, res.RemovedLeafKeys)
		graftRebuild(n, ps, b, acc, res)
		return true

	case want == KindEmptyLeaf:
		return false

	case want == KindLeaf:
		if particlesEqual(n.Particles, ps) {
			// Clean leaf: re-point the bucket at the new array (values are
			// identical) so the old array can be recycled, and keep Data.
			n.Particles = ps
			res.ReusedLeaves++
			return false
		}
		n.Particles = ps
		n.NParticles = len(ps)
		n.Data = acc.FromLeaf(ps, n.Box)
		res.DirtyLeaves = append(res.DirtyLeaves, n)
		return true

	default:
		bounds := b.cfg.octants(ps, n.Box, n.Key, n.Level)
		changed := false
		for i := 0; i < 8; i++ {
			if patchNode(n.Child(i), ps[bounds[i]:bounds[i+1]], b, acc, res) {
				changed = true
			}
		}
		if changed {
			n.NParticles = len(ps)
			// Re-fold in child index order — the same in-order fold
			// Accumulate and AccumulateParallel use, so Data stays
			// bit-identical to a from-scratch accumulation.
			d := acc.Empty()
			for i := 0; i < 8; i++ {
				d = acc.Add(d, n.Child(i).Data)
			}
			n.Data = d
		}
		return changed
	}
}

// BucketLeafKeys appends the key of every bucket-bearing leaf under n to
// dst: the buckets that go stale when n is restructured or its subtree
// retired.
func BucketLeafKeys[D any](n *Node[D], dst []uint64) []uint64 {
	Walk(n, func(m *Node[D]) bool {
		if m.Kind() == KindLeaf && len(m.Particles) > 0 {
			dst = append(dst, m.Key)
		}
		return true
	})
	return dst
}

// graftRebuild replaces n's contents with a freshly built (and
// accumulated) subtree over ps, preserving n's object identity: the
// fresh root's kind, children, bucket, count, and Data are moved into n
// and the children reparented. Every bucket-bearing leaf of the rebuilt
// region is dirty by construction.
func graftRebuild[D any](n *Node[D], ps []particle.Particle, b *builder[D], acc Accumulator[D], res *PatchResult[D]) {
	fresh := b.build(ps, n.Box, n.Key, n.Level)
	AccumulateParallel(fresh, acc, b.cfg.Workers)
	n.SetKind(fresh.Kind())
	n.children = fresh.children
	for i := range n.children {
		if c := n.children[i].Load(); c != nil {
			c.Parent = n
		}
	}
	n.Particles = fresh.Particles
	n.NParticles = fresh.NParticles
	n.Data = fresh.Data
	Walk(n, func(m *Node[D]) bool {
		if m.Kind() == KindLeaf && len(m.Particles) > 0 {
			res.DirtyLeaves = append(res.DirtyLeaves, m)
		}
		return true
	})
}

// particlesEqual reports elementwise struct equality — every field,
// including Key and Partition, so a particle that moved, was re-keyed, or
// was reassigned to another partition always dirties its leaf.
func particlesEqual(a, b []particle.Particle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
